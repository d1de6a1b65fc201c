//! Command-line interface logic for the `c4cam` binary.
//!
//! `c4cam help` prints the synopsis of every command; it is generated
//! by [`usage`] from the flag table in this file, which is also what
//! [`parse_args`] tokenises against, so the two cannot disagree. A flag
//! that a command's row does not list is a usage error, never silently
//! ignored.
//!
//! Exit codes (`src/bin/c4cam.rs`): 2 for a usage error (anything
//! [`parse_args`] rejects: unknown or foreign flags, bad values and
//! keywords, missing required flags), 1 for a valid command whose
//! pipeline, simulation or I/O failed in [`execute`], 0 on success.
//!
//! `--engine` names resolve through [`c4cam_hal::BackendRegistry`]
//! (`tape`, `walk`); `sweep` accepts a comma-separated list as an
//! extra grid axis.

use crate::accuracy::{evaluate_faulty, AccuracyReport, FaultKnobs};
use crate::benchgate::{run_bench_gate, BenchGateArgs};
use crate::driver::{build_arch, DriverError, Experiment, ParseKeywordError};
use crate::service::{reference_pool_classes, DatasetPlanSource};
use crate::sweep::SweepPlan;
use c4cam_arch::tech::TechnologyModel;
use c4cam_arch::{parse_spec, ArchSpec, Optimization, SpecError};
use c4cam_camsim::ExecStats;
use c4cam_core::mapping::{place, MappingProblem};
use c4cam_core::pipeline::{C4camPipeline, PipelineOptions, Target};
use c4cam_datasets::{Dataset, DatasetFormat, DatasetTask, DatasetWorkload};
use c4cam_engine::Tape;
use c4cam_frontend::{parse_torchscript, FrontendConfig};
use c4cam_hal::{BackendRegistry, ExecOptions};
use c4cam_runtime::Value;
use c4cam_server::protocol::PlanKey;
use c4cam_server::{AdmissionConfig, LoadMode, LoadgenConfig, ServeConfig};
use c4cam_telemetry::export::chrome_trace;
use c4cam_telemetry::json;
use c4cam_telemetry::log::LogLevel;
use c4cam_telemetry::metrics::{peak_rss_bytes, MetricsReport, PEAK_RSS_COUNTER};
use c4cam_telemetry::{log as tlog, CollectingRecorder, Phase, Telemetry};
use c4cam_tensor::Tensor;
use c4cam_workloads::{DtreeWorkload, GpuComparisonWorkload, HdcWorkload, KnnWorkload, Workload};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// CLI failure: bad arguments or a failing underlying stage.
#[derive(Debug)]
pub struct CliError {
    /// Description shown to the user.
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn cli_err(message: impl fmt::Display) -> CliError {
    CliError {
        message: message.to_string(),
    }
}

impl From<DriverError> for CliError {
    fn from(e: DriverError) -> CliError {
        cli_err(e)
    }
}

/// Which stage `compile` emits: an IR snapshot, or the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitStage {
    /// The torch-dialect entry IR (Fig. 4b).
    Torch,
    /// After `torch-to-cim` (Fig. 5a).
    Cim,
    /// After `cim-fuse-ops` (Fig. 5c).
    CimFused,
    /// The host-loops partitioned form (Fig. 5d).
    Partitioned,
    /// The fully mapped cam form (Fig. 6) — default.
    Cam,
    /// The disassembled tape compiled from the cam form: what the
    /// `tape` engine executes, after its passes.
    Tape,
}

impl FromStr for EmitStage {
    type Err = ParseKeywordError;

    fn from_str(s: &str) -> Result<EmitStage, ParseKeywordError> {
        match s {
            "torch" => Ok(EmitStage::Torch),
            "cim" => Ok(EmitStage::Cim),
            "cim-fused" => Ok(EmitStage::CimFused),
            "partitioned" => Ok(EmitStage::Partitioned),
            "cam" => Ok(EmitStage::Cam),
            "tape" => Ok(EmitStage::Tape),
            _ => Err(ParseKeywordError::new(
                "--emit stage",
                s,
                &["torch", "cim", "cim-fused", "partitioned", "cam", "tape"],
            )),
        }
    }
}

impl EmitStage {
    /// Parse from the `--emit` keyword (delegates to [`FromStr`]).
    pub fn from_keyword(s: &str) -> Option<EmitStage> {
        s.parse().ok()
    }

    fn snapshot_name(self) -> &'static str {
        match self {
            EmitStage::Torch => "torch",
            EmitStage::Cim => "torch-to-cim",
            EmitStage::CimFused => "cim-fuse-ops",
            EmitStage::Partitioned => "cim-partition",
            EmitStage::Cam | EmitStage::Tape => "cam-map",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// Compile and print IR.
    Compile(CompileArgs),
    /// Compile, execute on the simulator, print results and stats.
    Run(RunArgs),
    /// Run a dataset workload end-to-end on the simulator.
    RunDataset(DatasetRunArgs),
    /// Show the placement for a problem geometry.
    Place(PlaceArgs),
    /// Run a design-space sweep over a built-in or dataset workload.
    Sweep(SweepArgs),
    /// CAM-vs-CPU accuracy evaluation on a real dataset.
    Accuracy(AccuracyArgs),
    /// Start the resident service (`c4cam serve`).
    Serve(ServeArgs),
    /// Drive a running service and report throughput/latency.
    Loadgen(LoadgenArgs),
    /// Run the perf-regression gate against the committed baseline.
    BenchGate(BenchGateArgs),
    /// Print the usage text (also `--help` / `-h`).
    Help,
    /// Print one command's synopsis (`c4cam <command> --help`).
    CommandHelp(&'static str),
}

/// Arguments of `c4cam compile`.
#[derive(Debug, Clone)]
pub struct CompileArgs {
    /// Architecture spec file path.
    pub arch: String,
    /// TorchScript source file path.
    pub source: String,
    /// Positional input shapes.
    pub inputs: Vec<Vec<i64>>,
    /// `self.<name>` parameter shapes.
    pub params: Vec<(String, Vec<i64>)>,
    /// Stage to emit.
    pub emit: EmitStage,
}

/// Output format of `run`/`place` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable text (default).
    #[default]
    Text,
    /// Machine-readable JSON for scripted DSE sweeps.
    Json,
}

impl FromStr for OutputFormat {
    type Err = ParseKeywordError;

    fn from_str(s: &str) -> Result<OutputFormat, ParseKeywordError> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            _ => Err(ParseKeywordError::new("--format", s, &["text", "json"])),
        }
    }
}

impl OutputFormat {
    /// Parse from the `--format` keyword (delegates to [`FromStr`]).
    pub fn from_keyword(s: &str) -> Option<OutputFormat> {
        s.parse().ok()
    }
}

/// Output format of `sweep` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepFormat {
    /// Aligned text table (default).
    #[default]
    Table,
    /// Machine-readable JSON.
    Json,
    /// CSV with a stable header row.
    Csv,
}

impl FromStr for SweepFormat {
    type Err = ParseKeywordError;

    fn from_str(s: &str) -> Result<SweepFormat, ParseKeywordError> {
        match s {
            "table" => Ok(SweepFormat::Table),
            "json" => Ok(SweepFormat::Json),
            "csv" => Ok(SweepFormat::Csv),
            _ => Err(ParseKeywordError::new(
                "--format",
                s,
                &["table", "json", "csv"],
            )),
        }
    }
}

/// How much of the collected metrics a command prints after its
/// report (`--metrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No metrics output (default).
    #[default]
    None,
    /// Phase breakdown plus the top ops by host time and sim energy.
    Summary,
    /// The summary plus per-op latency percentiles, shard utilization,
    /// and final counter values.
    Full,
}

impl FromStr for MetricsMode {
    type Err = ParseKeywordError;

    fn from_str(s: &str) -> Result<MetricsMode, ParseKeywordError> {
        match s {
            "none" => Ok(MetricsMode::None),
            "summary" => Ok(MetricsMode::Summary),
            "full" => Ok(MetricsMode::Full),
            _ => Err(ParseKeywordError::new(
                "--metrics",
                s,
                &["none", "summary", "full"],
            )),
        }
    }
}

/// Telemetry configuration shared by the executing commands:
/// the recorder is enabled exactly when a trace file or a metrics
/// report was requested, so the default run pays nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryArgs {
    /// Trace output path (`--trace-out`): Chrome trace-event JSON.
    pub trace_out: Option<String>,
    /// Metrics report appended to the command output (`--metrics`).
    pub metrics: MetricsMode,
    /// Stderr diagnostics level (`--log-level`, overriding the
    /// `C4CAM_LOG` environment variable).
    pub log_level: Option<LogLevel>,
}

/// A live recorder for one command invocation: [`TelemetrySession::start`]
/// builds the [`Telemetry`] handle the pipeline records into, and
/// [`TelemetrySession::finish`] writes the trace file and appends the
/// requested metrics report to the command output.
struct TelemetrySession {
    recorder: Option<Arc<CollectingRecorder>>,
    telemetry: Telemetry,
    args: TelemetryArgs,
}

impl TelemetrySession {
    fn start(args: &TelemetryArgs) -> TelemetrySession {
        if let Some(level) = args.log_level {
            tlog::set_level(level);
        }
        let wanted = args.trace_out.is_some() || args.metrics != MetricsMode::None;
        let (recorder, telemetry) = if wanted {
            let recorder = Arc::new(CollectingRecorder::new());
            (
                Some(Arc::clone(&recorder)),
                Telemetry::new(recorder as Arc<dyn c4cam_telemetry::Recorder>),
            )
        } else {
            (None, Telemetry::default())
        };
        TelemetrySession {
            recorder,
            telemetry,
            args: args.clone(),
        }
    }

    /// Drain the recorder: write `--trace-out` (if requested) whether
    /// the run succeeded or failed (a failed run is traced up to its
    /// failure, and its own error is the one returned), then append the
    /// `--metrics` report to a successful run's output.
    fn finish(self, result: Result<String, CliError>) -> Result<String, CliError> {
        let Some(recorder) = self.recorder else {
            return result;
        };
        let events = recorder.events();
        let mut written = Ok(());
        if let Some(path) = &self.args.trace_out {
            written = std::fs::write(path, chrome_trace(&events))
                .map(|()| tlog::summary(format_args!("wrote trace to {path}")))
                .map_err(|e| cli_err(format!("cannot write trace file '{path}': {e}")));
        }
        let mut output = result?;
        written?;
        let report = match self.args.metrics {
            MetricsMode::None => return Ok(output),
            MetricsMode::Summary => MetricsReport::from_events(&events).render_summary(5),
            MetricsMode::Full => MetricsReport::from_events(&events).render_full(5),
        };
        if !output.is_empty() && !output.ends_with('\n') {
            output.push('\n');
        }
        output.push('\n');
        output.push_str(report.trim_end_matches('\n'));
        Ok(output)
    }
}

/// Arguments of `c4cam run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Compilation arguments.
    pub compile: CompileArgs,
    /// CSV files supplying the runtime arguments, in `arg_order`.
    pub data: Vec<String>,
    /// Seed for synthetic 0/1 data when no CSV files are given.
    pub random_seed: u64,
    /// Execution backend name (flat `tape` by default; `walk` is the
    /// oracle) — a [`c4cam_hal::BackendRegistry`] key.
    pub engine: String,
    /// Worker threads for the tape engine (`1` = sequential). With more
    /// than one thread the batch executor shards the query loop across
    /// pooled workers; a run of fewer than two queries is sequential at
    /// any count.
    pub threads: usize,
    /// Report format.
    pub format: OutputFormat,
    /// Tracing/metrics/logging configuration.
    pub telemetry: TelemetryArgs,
}

/// Arguments of `c4cam run --dataset`: execute a [`DatasetWorkload`]
/// through the experiment pipeline instead of compiling a TorchScript
/// source.
#[derive(Debug, Clone)]
pub struct DatasetRunArgs {
    /// Dataset path (IDX directory or CSV file).
    pub dataset: String,
    /// Explicit dataset format (inferred from the path when `None`).
    pub dataset_format: Option<DatasetFormat>,
    /// Task (`hdc` = nearest prototype, `knn` = nearest training
    /// sample).
    pub task: DatasetTask,
    /// Cap on executed queries.
    pub limit: Option<usize>,
    /// Optional architecture spec file (the default [`ArchSpec`]
    /// otherwise).
    pub arch: Option<String>,
    /// Execution backend name.
    pub engine: String,
    /// Worker threads.
    pub threads: usize,
    /// Report format.
    pub format: OutputFormat,
    /// Tracing/metrics/logging configuration.
    pub telemetry: TelemetryArgs,
}

/// Arguments of `c4cam accuracy`: one dataset evaluated at each
/// requested cell width, CAM vs. the CPU reference classifier.
#[derive(Debug, Clone)]
pub struct AccuracyArgs {
    /// Dataset path (IDX directory or CSV file).
    pub dataset: String,
    /// Explicit dataset format (inferred from the path when `None`).
    pub dataset_format: Option<DatasetFormat>,
    /// Task (`hdc` or `knn`).
    pub task: DatasetTask,
    /// Cap on executed queries.
    pub limit: Option<usize>,
    /// Cell widths to evaluate (one report row each).
    pub bits: Vec<u32>,
    /// Square subarray size of the evaluation architecture.
    pub subarray: usize,
    /// Execution backend name.
    pub engine: String,
    /// Worker threads.
    pub threads: usize,
    /// Fault rates to evaluate (one report row per bits × rate;
    /// `[0.0]` = no injection).
    pub fault_rates: Vec<f64>,
    /// Seed of the fault-site hash streams.
    pub fault_seed: u64,
    /// Spare rows reserved per subarray for stuck-row remapping.
    pub spare_rows: usize,
    /// k-modular redundant-search voting factor (1 = off).
    pub vote: usize,
    /// Report format.
    pub format: SweepFormat,
    /// Tracing/metrics/logging configuration.
    pub telemetry: TelemetryArgs,
}

/// Arguments of `c4cam serve`: the resident service over one dataset.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Dataset path (IDX directory or CSV file).
    pub dataset: String,
    /// Explicit dataset format (inferred from the path when `None`).
    pub dataset_format: Option<DatasetFormat>,
    /// Default task (`hdc` or `knn`).
    pub task: DatasetTask,
    /// Default cell width in bits.
    pub bits: u32,
    /// Default square subarray size.
    pub subarray: usize,
    /// Default execution backend name.
    pub engine: String,
    /// Worker threads per plan execution.
    pub threads: usize,
    /// Bind host.
    pub host: String,
    /// Bind port (`0` = ephemeral; the bound address is printed on
    /// startup).
    pub port: u16,
    /// Maximum rows coalesced into one batch (the compiled capacity,
    /// clamped to the query-pool size).
    pub max_batch: usize,
    /// Maximum queued requests before `overloaded` rejections.
    pub queue_depth: usize,
    /// Maximum compiled plans kept resident.
    pub cache_cap: usize,
    /// Tracing/metrics/logging configuration.
    pub telemetry: TelemetryArgs,
}

/// Arguments of `c4cam loadgen`: drive a running service.
#[derive(Debug, Clone)]
pub struct LoadgenArgs {
    /// Server address, `host:port`.
    pub addr: String,
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Query-pool rows per request.
    pub rows_per_request: usize,
    /// Arrival mode (`closed`, or `open` at `--rate` requests/second).
    pub mode: LoadMode,
    /// Dataset path for exact verification against the CPU reference
    /// (must be the dataset the server loaded).
    pub verify_dataset: Option<String>,
    /// Explicit dataset format (inferred from the path when `None`).
    pub dataset_format: Option<DatasetFormat>,
    /// Task of the server's default plan key.
    pub task: DatasetTask,
    /// Cell width of the server's default plan key.
    pub bits: u32,
    /// Subarray size of the server's default plan key.
    pub subarray: usize,
    /// Send `{"cmd":"shutdown"}` after the run.
    pub shutdown: bool,
    /// Write the JSON report to this path.
    pub out: Option<String>,
}

/// Arguments of `c4cam sweep`: the grid dimensions plus the workload
/// shape overrides. Unset shape fields fall back to the selected
/// workload's paper defaults (see [`build_sweep_workload`]); with
/// `--dataset` the workload is a [`DatasetWorkload`] and the shape is
/// fixed by the data.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Workload keyword (`hdc`, `knn`, `dtree`, `gpu`; with
    /// [`SweepArgs::dataset`], the dataset task `hdc` or `knn`).
    pub workload: String,
    /// Dataset path: sweep a dataset-backed workload instead of a
    /// synthetic one.
    pub dataset: Option<String>,
    /// Explicit dataset format (inferred from the path when `None`).
    pub dataset_format: Option<DatasetFormat>,
    /// Cap on executed dataset queries.
    pub limit: Option<usize>,
    /// Queries to simulate per grid point.
    pub queries: Option<usize>,
    /// Stored classes (hdc/gpu/dtree) or patterns (knn).
    pub classes: Option<usize>,
    /// Feature dimensionality (dtree: feature count).
    pub dims: Option<usize>,
    /// Square subarray sizes to sweep.
    pub subarrays: Vec<usize>,
    /// Optimization configurations to sweep.
    pub opts: Vec<Optimization>,
    /// Technologies to sweep, by name (`default`, `fefet-45nm`,
    /// `cmos-16nm`); `None` is the spec's own model.
    pub techs: Vec<(String, Option<TechnologyModel>)>,
    /// Bits-per-cell values to sweep.
    pub bits: Vec<u32>,
    /// Execution backend names to sweep (an extra grid axis).
    pub engines: Vec<String>,
    /// Fault rates to sweep (an extra grid axis; `[0.0]` = none).
    pub fault_rates: Vec<f64>,
    /// Seed of the fault-site hash streams for faulty grid points.
    pub fault_seed: u64,
    /// Worker threads per grid point.
    pub threads: usize,
    /// Keep only the latency/energy/area Pareto frontier.
    pub pareto: bool,
    /// Report format.
    pub format: SweepFormat,
    /// Tracing/metrics/logging configuration.
    pub telemetry: TelemetryArgs,
}

impl Default for SweepArgs {
    /// The §IV-C default sweep: the paper HDC workload over all square
    /// subarray sizes and optimization configurations.
    fn default() -> SweepArgs {
        SweepArgs {
            workload: "hdc".to_string(),
            dataset: None,
            dataset_format: None,
            limit: None,
            queries: None,
            classes: None,
            dims: None,
            subarrays: crate::sweep::DEFAULT_SUBARRAY_SIZES.to_vec(),
            opts: crate::sweep::DEFAULT_OPTIMIZATIONS.to_vec(),
            techs: vec![("default".to_string(), None)],
            bits: vec![1],
            engines: vec!["tape".to_string()],
            fault_rates: vec![0.0],
            fault_seed: 0,
            threads: 1,
            pareto: false,
            format: SweepFormat::Table,
            telemetry: TelemetryArgs::default(),
        }
    }
}

/// Arguments of `c4cam place`.
#[derive(Debug, Clone)]
pub struct PlaceArgs {
    /// Architecture spec file path.
    pub arch: String,
    /// Stored rows.
    pub stored_rows: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// Query count.
    pub queries: usize,
    /// Report format.
    pub format: OutputFormat,
}

/// Elements one `--input` or `--param` shape may hold: 2^26, 256 MiB
/// of `f32` — room for the paper's largest kNN training set (5 216 ×
/// 4 096), and far below a size that exhausts memory or time.
pub const MAX_SHAPE_ELEMENTS: i64 = 1 << 26;

/// Parse a shape literal like `10x8192`: positive dimensions whose
/// product is at most [`MAX_SHAPE_ELEMENTS`].
pub fn parse_shape(text: &str) -> Result<Vec<i64>, CliError> {
    let dims: Result<Vec<i64>, _> = text.split('x').map(str::parse).collect();
    let dims = match dims {
        Ok(d) if !d.is_empty() && d.iter().all(|&x| x > 0) => d,
        _ => {
            return Err(cli_err(format!(
                "invalid shape '{text}' (expected e.g. 10x8192)"
            )))
        }
    };
    let elements = dims.iter().try_fold(1i64, |n, &d| n.checked_mul(d));
    if elements.is_none_or(|n| n > MAX_SHAPE_ELEMENTS) {
        return Err(cli_err(format!(
            "shape '{text}' holds more than {MAX_SHAPE_ELEMENTS} elements"
        )));
    }
    Ok(dims)
}

/// The command forms, in synopsis order; form `i` owns bit `1 << i` of
/// the [`Flag`] masks. `run` has two forms with different flag sets: a
/// label's second word is the flag whose presence selects the form.
const COMMANDS: [&str; 9] = [
    "compile",
    "run",
    "run --dataset",
    "place",
    "sweep",
    "accuracy",
    "serve",
    "loadgen",
    "bench-gate",
];
const COMPILE: u16 = 1 << 0;
const RUN: u16 = 1 << 1;
const RUN_DATASET: u16 = 1 << 2;
const PLACE: u16 = 1 << 3;
const SWEEP: u16 = 1 << 4;
const ACCURACY: u16 = 1 << 5;
const SERVE: u16 = 1 << 6;
const LOADGEN: u16 = 1 << 7;
const BENCH_GATE: u16 = 1 << 8;
/// The forms that run on a backend: they take an engine, threads and telemetry.
const EXECUTING: u16 = RUN | RUN_DATASET | SWEEP | ACCURACY | SERVE;
/// The forms that name a dataset's file format and the task to run on it.
const ON_DATASET: u16 = RUN_DATASET | SWEEP | ACCURACY | SERVE | LOADGEN;

/// One row of the flag table: everything the parser and [`usage`]
/// know about a flag.
struct Flag {
    name: &'static str,
    /// Value placeholder shown in the synopsis; empty for a switch.
    value: &'static str,
    /// May be given more than once (otherwise the last value wins).
    repeats: bool,
    /// Command forms that read the flag; every other form rejects it.
    commands: u16,
    /// The subset of `commands` that fail without the flag.
    required: u16,
}

const fn flag(name: &'static str, value: &'static str, required: u16, optional: u16) -> Flag {
    Flag {
        name,
        value,
        repeats: false,
        commands: required | optional,
        required,
    }
}

impl Flag {
    const fn repeated(mut self) -> Flag {
        self.repeats = true;
        self
    }
}

/// The flag table, in synopsis order: `flag(name, value, required by,
/// optional for)`. A flag is declared here and nowhere else:
/// [`parse_args`] rejects it on every command form its row does not
/// list, and [`usage`] prints each form's synopsis from the same rows.
const FLAGS: [Flag; 47] = [
    flag("--arch", "SPEC", COMPILE | RUN | PLACE, RUN_DATASET),
    flag("--source", "KERNEL.py", COMPILE | RUN, 0),
    flag("--input", "SHAPE", 0, COMPILE | RUN).repeated(),
    flag("--param", "name=SHAPE", 0, COMPILE | RUN).repeated(),
    flag(
        "--emit",
        "torch|cim|cim-fused|partitioned|cam|tape",
        0,
        COMPILE,
    ),
    flag("--data", "FILE.csv", 0, RUN).repeated(),
    flag("--random-seed", "N", 0, RUN),
    flag("--stored-rows", "N", PLACE, 0),
    flag("--dims", "D", PLACE, SWEEP),
    flag("--queries", "N", 0, PLACE | SWEEP),
    flag("--classes", "N", 0, SWEEP),
    // `usage` fills in the registered backends; `sweep` takes a
    // comma-separated list as a grid axis.
    flag("--engine", "ENGINE", 0, EXECUTING),
    flag("--threads", "N", 0, EXECUTING),
    // text|json for run/place, table|json|csv for sweep/accuracy.
    flag(
        "--format",
        "text|json|table|csv",
        0,
        RUN | RUN_DATASET | PLACE | SWEEP | ACCURACY,
    ),
    // dtree and gpu are synthetic `sweep` workloads.
    flag("--workload", "hdc|knn|dtree|gpu", 0, ON_DATASET),
    flag("--subarrays", "N,N,...", 0, SWEEP),
    flag("--opts", "base,power,density,power+density", 0, SWEEP),
    flag("--techs", "default,fefet-45nm,cmos-16nm", 0, SWEEP),
    // `serve` and `loadgen` take a single value.
    flag("--bits", "B,B,...", 0, SWEEP | ACCURACY | SERVE | LOADGEN),
    flag("--pareto", "", 0, SWEEP),
    flag(
        "--dataset",
        "DIR|FILE.csv",
        RUN_DATASET | ACCURACY | SERVE,
        SWEEP,
    ),
    flag("--dataset-format", "idx|csv", 0, ON_DATASET),
    flag("--limit", "N", 0, RUN_DATASET | SWEEP | ACCURACY),
    flag("--subarray", "N", 0, ACCURACY | SERVE | LOADGEN),
    flag("--fault-rate", "R,R,...", 0, SWEEP | ACCURACY),
    flag("--fault-seed", "N", 0, SWEEP | ACCURACY),
    flag("--spare-rows", "N", 0, ACCURACY),
    flag("--vote", "K", 0, ACCURACY),
    flag("--host", "H", 0, SERVE),
    flag("--port", "P", 0, SERVE),
    flag("--max-batch", "N", 0, SERVE),
    flag("--queue-depth", "N", 0, SERVE),
    flag("--cache-cap", "N", 0, SERVE),
    flag("--addr", "HOST:PORT", LOADGEN, 0),
    flag("--requests", "N", 0, LOADGEN),
    flag("--concurrency", "N", 0, LOADGEN),
    flag("--rows-per-request", "N", 0, LOADGEN),
    flag("--mode", "closed|open", 0, LOADGEN),
    flag("--rate", "R", 0, LOADGEN),
    flag("--verify-dataset", "DIR|FILE.csv", 0, LOADGEN),
    flag("--shutdown", "", 0, LOADGEN),
    flag("--out", "FILE.json", 0, LOADGEN | BENCH_GATE),
    flag("--baseline", "FILE.json", 0, BENCH_GATE),
    flag("--short", "", 0, BENCH_GATE),
    flag("--trace-out", "PATH", 0, EXECUTING),
    flag("--metrics", "none|summary|full", 0, EXECUTING),
    flag("--log-level", "off|summary|debug", 0, EXECUTING),
];

fn row(name: &str) -> &'static Flag {
    let row = FLAGS.iter().find(|row| row.name == name);
    row.expect("the flag has a row in FLAGS")
}

const CHECKED: &str = "parse_args checked the form's required flags";

/// The flags of one invocation, in argument order, already checked
/// against the command form's rows; the getters take a row's `name`.
struct Given {
    form: u16,
    flags: Vec<(&'static str, String)>,
}

impl Given {
    fn all(&self, name: &'static str) -> impl Iterator<Item = &str> {
        assert!(
            row(name).commands & self.form != 0,
            "a builder reads {name}, which its command's row does not allow"
        );
        let given = self.flags.iter().filter(move |(n, _)| *n == name);
        given.map(|(_, value)| value.as_str())
    }

    fn text(&self, name: &'static str) -> Option<&str> {
        self.all(name).last()
    }

    fn owned(&self, name: &'static str) -> Option<String> {
        self.text(name).map(str::to_string)
    }

    fn has(&self, name: &'static str) -> bool {
        self.text(name).is_some()
    }

    /// A value read through [`FromStr`], failing with the type's own
    /// message (keywords list their alternatives).
    fn keyword<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        let parse = |v: &str| v.parse().map_err(cli_err);
        self.text(name).map(parse).transpose()
    }

    /// A number satisfying `ok`, failing with `<flag> expects <what>`.
    fn number<T: FromStr>(
        &self,
        name: &'static str,
        ok: impl Fn(&T) -> bool,
        what: &str,
    ) -> Result<Option<T>, CliError> {
        let parse = |v: &str| {
            let n = v.parse().ok().filter(&ok);
            n.ok_or_else(|| cli_err(format!("{name} expects {what}")))
        };
        self.text(name).map(parse).transpose()
    }

    fn int<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, CliError> {
        self.number(name, |_| true, "an integer")
    }

    fn positive(&self, name: &'static str) -> Result<Option<usize>, CliError> {
        self.number(name, |&n| n >= 1, "a positive integer")
    }

    /// A comma-separated list; empty lists and empty items are
    /// rejected.
    fn list<T>(
        &self,
        name: &'static str,
        item: impl FnMut(&str) -> Result<T, CliError>,
    ) -> Result<Option<Vec<T>>, CliError> {
        let Some(text) = self.text(name) else {
            return Ok(None);
        };
        let items: Vec<&str> = text.split(',').map(str::trim).collect();
        if items.iter().any(|s| s.is_empty()) {
            return Err(cli_err(format!(
                "{name} expects a non-empty comma-separated list, got '{text}'"
            )));
        }
        let items: Result<Vec<T>, CliError> = items.into_iter().map(item).collect();
        items.map(Some)
    }

    fn bits(&self) -> Result<Option<Vec<u32>>, CliError> {
        self.list("--bits", |v| {
            let bits = v.parse().ok().filter(|b| (1..=4).contains(b));
            bits.ok_or_else(|| cli_err(format!("invalid bits-per-cell '{v}' (1..=4)")))
        })
    }

    /// `serve` and `loadgen` take one cell width (default 2), not a
    /// grid axis.
    fn single_bits(&self, who: &str, why: &str) -> Result<u32, CliError> {
        match self.bits()?.as_deref() {
            None => Ok(2),
            Some([bits]) => Ok(*bits),
            Some(_) => Err(cli_err(format!(
                "{who} expects a single --bits value ({why})"
            ))),
        }
    }

    fn fault_rates(&self) -> Result<Option<Vec<f64>>, CliError> {
        self.list("--fault-rate", |v| {
            let rate = v.parse().ok().filter(|r| (0.0..=1.0).contains(r));
            rate.ok_or_else(|| cli_err(format!("invalid fault rate '{v}' (expected 0.0..=1.0)")))
        })
    }

    fn threads(&self) -> Result<usize, CliError> {
        Ok(self.positive("--threads")?.unwrap_or(1))
    }

    /// `--engine` (default `tape`), checked against `--threads`.
    fn engine(&self) -> Result<String, CliError> {
        resolve_engine(self.text("--engine").unwrap_or("tape"), self.threads()?)
    }

    fn telemetry(&self) -> Result<TelemetryArgs, CliError> {
        Ok(TelemetryArgs {
            trace_out: self.owned("--trace-out"),
            metrics: self.keyword("--metrics")?.unwrap_or_default(),
            log_level: self.keyword("--log-level")?,
        })
    }

    /// The source-compilation flags `compile` and `run` share; `emit`
    /// is the stage to stop at (`run` always lowers to `cam`).
    fn compile(&self, emit: EmitStage) -> Result<CompileArgs, CliError> {
        let mut params = Vec::new();
        for v in self.all("--param") {
            let (name, shape) = v
                .split_once('=')
                .ok_or_else(|| cli_err("--param expects name=SHAPE"))?;
            params.push((name.to_string(), parse_shape(shape)?));
        }
        let inputs: Result<_, _> = self.all("--input").map(parse_shape).collect();
        Ok(CompileArgs {
            arch: self.owned("--arch").expect(CHECKED),
            source: self.owned("--source").expect(CHECKED),
            inputs: inputs?,
            params,
            emit,
        })
    }
}

/// Resolve an `--engine` name through the backend registry; more than
/// one thread needs a backend that supports threads.
fn resolve_engine(name: &str, threads: usize) -> Result<String, CliError> {
    let backend = BackendRegistry::global().get(name).map_err(cli_err)?;
    if threads > 1 && !backend.supports_threads() {
        return Err(cli_err(format!(
            "--threads requires a threaded backend (the {name} backend is single-threaded)"
        )));
    }
    Ok(name.to_string())
}

/// Parse the full argument vector (excluding the program name). The
/// tokens are matched against the `FLAGS` table; a flag whose row does
/// not list the command form is a usage error, as is a missing
/// required one; the form's builder then reads the typed values.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let (word, rest) = args.split_first().ok_or_else(|| cli_err(usage()))?;
    if matches!(word.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    if rest.iter().any(|t| matches!(t.as_str(), "--help" | "-h")) {
        return COMMANDS
            .iter()
            .map(|label| command_word(label))
            .find(|command| command == word)
            .map(Command::CommandHelp)
            .ok_or_else(|| cli_err(format!("unknown command '{word}'\n{}", usage())));
    }
    let mut flags = Vec::new();
    let mut tokens = rest.iter();
    while let Some(token) = tokens.next() {
        let row = FLAGS
            .iter()
            .find(|row| row.name == token)
            .ok_or_else(|| cli_err(format!("unknown flag '{token}'\n{}", usage())))?;
        let value = match row.value {
            "" => String::new(),
            _ => tokens
                .next()
                .cloned()
                .ok_or_else(|| cli_err(format!("{token} requires a value")))?,
        };
        flags.push((row.name, value));
    }
    let given = |name: &str| flags.iter().any(|(n, _)| *n == name);
    let selected = |label: &&str| match label.split_once(' ') {
        Some((command, selector)) => command == word && given(selector),
        None => label == word,
    };
    let index = COMMANDS
        .iter()
        .rposition(selected)
        .ok_or_else(|| cli_err(format!("unknown command '{word}'\n{}", usage())))?;
    let (label, form) = (COMMANDS[index], 1u16 << index);
    if let Some((name, _)) = flags.iter().find(|(n, _)| row(n).commands & form == 0) {
        return Err(cli_err(format!("{name} is not supported by '{label}'")));
    }
    let missing = |row: &&Flag| row.required & form != 0 && !given(row.name);
    if let Some(row) = FLAGS.iter().find(missing) {
        let name = row.name;
        return Err(cli_err(format!("missing required {name}\n{}", usage())));
    }
    let g = Given { form, flags };
    Ok(match form {
        COMPILE => {
            let emit = g.keyword("--emit")?.unwrap_or(EmitStage::Cam);
            Command::Compile(g.compile(emit)?)
        }
        RUN => Command::Run(RunArgs {
            compile: g.compile(EmitStage::Cam)?,
            data: g.all("--data").map(str::to_string).collect(),
            random_seed: g.int("--random-seed")?.unwrap_or(42),
            engine: g.engine()?,
            threads: g.threads()?,
            format: g.keyword("--format")?.unwrap_or_default(),
            telemetry: g.telemetry()?,
        }),
        RUN_DATASET => Command::RunDataset(DatasetRunArgs {
            dataset: g.owned("--dataset").expect(CHECKED),
            dataset_format: g.keyword("--dataset-format")?,
            task: g.keyword("--workload")?.unwrap_or(DatasetTask::Hdc),
            limit: g.positive("--limit")?,
            arch: g.owned("--arch"),
            engine: g.engine()?,
            threads: g.threads()?,
            format: g.keyword("--format")?.unwrap_or_default(),
            telemetry: g.telemetry()?,
        }),
        PLACE => Command::Place(PlaceArgs {
            arch: g.owned("--arch").expect(CHECKED),
            stored_rows: g.positive("--stored-rows")?.expect(CHECKED),
            dims: g.positive("--dims")?.expect(CHECKED),
            queries: g.positive("--queries")?.unwrap_or(1),
            format: g.keyword("--format")?.unwrap_or_default(),
        }),
        SWEEP => {
            let base = SweepArgs::default();
            let dataset = g.owned("--dataset");
            let workload = g.owned("--workload").unwrap_or(base.workload);
            let (queries, classes, dims) = (
                g.positive("--queries")?,
                g.positive("--classes")?,
                g.positive("--dims")?,
            );
            if dataset.is_none() {
                if !SWEEP_WORKLOADS.contains(&workload.as_str()) {
                    return Err(unknown_sweep_workload(&workload));
                }
            } else if queries.is_some() || classes.is_some() || dims.is_some() {
                return Err(cli_err(
                    "--classes/--dims/--queries are not supported with 'sweep --dataset' \
                     (the dataset fixes the shape; use --limit to cap queries)",
                ));
            } else {
                workload.parse::<DatasetTask>().map_err(cli_err)?;
            }
            let threads = g.threads()?;
            let subarray = |v: &str| {
                let size = v.parse().ok().filter(|&n: &usize| n >= 1);
                size.ok_or_else(|| cli_err(format!("invalid subarray size '{v}'")))
            };
            let opt = |v: &str| v.parse().map_err(|e: SpecError| cli_err(e.message));
            let tech = |v: &str| Ok((v.to_string(), parse_tech(v)?));
            // Every name in the list is one point of the engine axis.
            let engine = |v: &str| resolve_engine(v, threads);
            Command::Sweep(SweepArgs {
                workload,
                dataset,
                dataset_format: g.keyword("--dataset-format")?,
                limit: g.positive("--limit")?,
                queries,
                classes,
                dims,
                subarrays: g.list("--subarrays", subarray)?.unwrap_or(base.subarrays),
                opts: g.list("--opts", opt)?.unwrap_or(base.opts),
                techs: g.list("--techs", tech)?.unwrap_or(base.techs),
                bits: g.bits()?.unwrap_or(base.bits),
                engines: g.list("--engine", engine)?.unwrap_or(base.engines),
                fault_rates: g.fault_rates()?.unwrap_or(base.fault_rates),
                fault_seed: g.int("--fault-seed")?.unwrap_or(base.fault_seed),
                threads,
                pareto: g.has("--pareto"),
                format: g.keyword("--format")?.unwrap_or_default(),
                telemetry: g.telemetry()?,
            })
        }
        ACCURACY => Command::Accuracy(AccuracyArgs {
            dataset: g.owned("--dataset").expect(CHECKED),
            dataset_format: g.keyword("--dataset-format")?,
            task: g.keyword("--workload")?.unwrap_or(DatasetTask::Hdc),
            limit: g.positive("--limit")?,
            bits: g.bits()?.unwrap_or_else(|| vec![1, 2]),
            subarray: g.positive("--subarray")?.unwrap_or(32),
            engine: g.engine()?,
            threads: g.threads()?,
            fault_rates: g.fault_rates()?.unwrap_or_else(|| vec![0.0]),
            fault_seed: g.int("--fault-seed")?.unwrap_or(0),
            spare_rows: g.int("--spare-rows")?.unwrap_or(0),
            vote: g.positive("--vote")?.unwrap_or(1),
            format: g.keyword("--format")?.unwrap_or_default(),
            telemetry: g.telemetry()?,
        }),
        SERVE => Command::Serve(ServeArgs {
            dataset: g.owned("--dataset").expect(CHECKED),
            dataset_format: g.keyword("--dataset-format")?,
            task: g.keyword("--workload")?.unwrap_or(DatasetTask::Hdc),
            bits: g.single_bits("serve", "clients override per request")?,
            subarray: g.positive("--subarray")?.unwrap_or(32),
            engine: g.engine()?,
            threads: g.threads()?,
            host: g.owned("--host").unwrap_or_else(|| "127.0.0.1".to_string()),
            port: g.number("--port", |_| true, "0..=65535")?.unwrap_or(0),
            max_batch: g.positive("--max-batch")?.unwrap_or(16),
            queue_depth: g.positive("--queue-depth")?.unwrap_or(256),
            cache_cap: g.positive("--cache-cap")?.unwrap_or(8),
            telemetry: g.telemetry()?,
        }),
        LOADGEN => {
            let positive = |r: &f64| r.is_finite() && *r > 0.0;
            let rate = g.number("--rate", positive, "a positive number")?;
            let mode: Result<LoadMode, String> = match (g.text("--mode").unwrap_or("closed"), rate)
            {
                ("closed", None) => Ok(LoadMode::Closed),
                ("open", Some(rate)) => Ok(LoadMode::Open { rate }),
                ("closed", Some(_)) => Err("--rate is only meaningful with --mode open".into()),
                ("open", None) => Err("--mode open requires --rate".into()),
                (other, _) => Err(format!("unknown --mode '{other}' (expected closed|open)")),
            };
            Command::Loadgen(LoadgenArgs {
                addr: g.owned("--addr").expect(CHECKED),
                requests: g.positive("--requests")?.unwrap_or(64),
                concurrency: g.positive("--concurrency")?.unwrap_or(4),
                rows_per_request: g.positive("--rows-per-request")?.unwrap_or(1),
                mode: mode.map_err(cli_err)?,
                verify_dataset: g.owned("--verify-dataset"),
                dataset_format: g.keyword("--dataset-format")?,
                task: g.keyword("--workload")?.unwrap_or(DatasetTask::Hdc),
                bits: g.single_bits("loadgen", "the server's default key")?,
                subarray: g.positive("--subarray")?.unwrap_or(32),
                shutdown: g.has("--shutdown"),
                out: g.owned("--out"),
            })
        }
        _ => Command::BenchGate(BenchGateArgs {
            baseline: g
                .owned("--baseline")
                .unwrap_or_else(|| "BENCH_baseline.json".to_string()),
            short: g.has("--short"),
            out: g.owned("--out"),
        }),
    })
}

/// Resolve a technology keyword to a model (`None` = spec default).
fn parse_tech(name: &str) -> Result<Option<TechnologyModel>, CliError> {
    match name {
        "default" => Ok(None),
        "fefet-45nm" | "fefet" => Ok(Some(TechnologyModel::fefet_45nm())),
        "cmos-16nm" | "cmos" => Ok(Some(TechnologyModel::cmos_tcam_16nm())),
        other => Err(cli_err(format!(
            "unknown technology '{other}' (expected default|fefet-45nm|cmos-16nm)"
        ))),
    }
}

/// What [`usage`] prints under the synopsis lines. A `  --flag: text`
/// line gains the flag's placeholder and the commands that read it.
const NOTES: &str = "  c4cam help\n\nA flag that is not on a command's line is a usage error for that command (exit code 2).\n\nbench gate:\n  bench-gate re-runs the search/engine microbenchmark workloads in-process and fails when any is more than 25% over the committed baseline (default BENCH_baseline.json), after scaling budgets by a host-calibration anchor; bless a new baseline with UPDATE_BASELINE=1 c4cam bench-gate; --short uses the small CI measurement window and --out writes the measurements as JSON\n\nservice mode:\n  serve loads the dataset and compiles the default plan once, then answers line-delimited JSON classify requests over TCP; a request that finds the device idle runs at once and requests that arrive while a batch runs are coalesced into the next one (up to --max-batch rows; there is no linger timer); loadgen drives a running server and reports sustained qps and p50/p90/p99 latency (--verify-dataset checks every response against the CPU reference exactly)\n\nfault injection:\n  --fault-rate: seeded device fault rates to evaluate (stuck-at + drift + transient; 0 = off)\n  --fault-seed: seed of the deterministic fault-site hash streams\n  --spare-rows: spare rows per subarray for stuck-row remapping\n  --vote: k-modular redundant-search voting\n\ntelemetry:\n  --trace-out: write a Chrome trace-event JSON (load in Perfetto / chrome://tracing), also when the run fails\n  --metrics: append a per-phase/per-op metrics report to the output\n  --log-level: stderr diagnostics (alias for the C4CAM_LOG environment variable)";

/// The command word of a [`COMMANDS`] label (`run` for `run --dataset`).
fn command_word(label: &'static str) -> &'static str {
    label.split(' ').next().unwrap_or(label)
}

/// A flag and its value placeholder, as the usage text shows them.
fn flag_synopsis(row: &Flag) -> String {
    format!("{} {}", row.name, row.value).trim_end().to_string()
}

/// The synopsis of command form `i`: its required flags, then the
/// optional ones in brackets.
fn synopsis(i: usize) -> String {
    let mut text = format!("c4cam {}", command_word(COMMANDS[i]));
    for row in FLAGS.iter().filter(|row| row.required & (1 << i) != 0) {
        text += &format!(" {}", flag_synopsis(row));
    }
    let optional = |row: &&Flag| row.commands & !row.required & (1 << i) != 0;
    for row in FLAGS.iter().filter(optional) {
        let more = if row.repeats { "..." } else { "" };
        text += &format!(" [{}]{more}", flag_synopsis(row));
    }
    text
}

/// `text` with the `--engine` placeholder spelled as the registry's
/// backend names.
fn with_engines(text: String) -> String {
    let engines = BackendRegistry::global().names().join("|");
    text.replace(row("--engine").value, &engines)
}

/// Usage text, generated from the `FLAGS` table: one synopsis line per
/// command form (required flags, then the optional ones in brackets),
/// then `NOTES`. The `--engine` alternatives are the registry's names.
pub fn usage() -> String {
    let mut text = String::from("usage:");
    for i in 0..COMMANDS.len() {
        text += &format!("\n  {}", synopsis(i));
    }
    for line in NOTES.lines() {
        let note = line.split_once(": ").filter(|_| line.starts_with("  --"));
        let Some((name, what)) = note else {
            text += &format!("\n{line}");
            continue;
        };
        let row = row(name.trim_start());
        let mut readers: Vec<&str> = Vec::new();
        for (i, label) in COMMANDS.iter().enumerate() {
            if row.commands & (1 << i) != 0 && !readers.contains(&command_word(label)) {
                readers.push(command_word(label));
            }
        }
        let flag = flag_synopsis(row);
        text += &format!("\n  {flag:<30} {what} ({})", readers.join("/"));
    }
    with_engines(text)
}

/// What `c4cam <command> --help` prints: the synopsis of each of the
/// command's forms.
fn command_usage(command: &str) -> String {
    let mut text = String::from("usage:");
    for (i, label) in COMMANDS.iter().enumerate() {
        if command_word(label) == command {
            text += &format!("\n  {}", synopsis(i));
        }
    }
    with_engines(text)
}

fn load_arch(path: &str) -> Result<ArchSpec, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| cli_err(format!("cannot read arch spec '{path}': {e}")))?;
    parse_spec(&text).map_err(cli_err)
}

fn frontend_config(args: &CompileArgs) -> FrontendConfig {
    let mut config = FrontendConfig::new();
    for shape in &args.inputs {
        config = config.input(shape.clone());
    }
    for (name, shape) in &args.params {
        config = config.parameter(name, shape.clone());
    }
    config
}

fn compile_module(
    args: &CompileArgs,
) -> Result<(c4cam_frontend::LoweredFunction, ArchSpec), CliError> {
    let spec = load_arch(&args.arch)?;
    let source = std::fs::read_to_string(&args.source)
        .map_err(|e| cli_err(format!("cannot read source '{}': {e}", args.source)))?;
    let lowered = parse_torchscript(&source, &frontend_config(args)).map_err(cli_err)?;
    Ok((lowered, spec))
}

/// Execute `compile`, returning the emitted IR (or tape) text.
pub fn run_compile(args: &CompileArgs) -> Result<String, CliError> {
    let (lowered, spec) = compile_module(args)?;
    let func = lowered.name.clone();
    let target = if args.emit == EmitStage::Partitioned {
        Target::HostLoops
    } else {
        Target::CamDevice
    };
    let compiled = C4camPipeline::new(spec)
        .with_options(PipelineOptions {
            keep_snapshots: true,
            target,
        })
        .compile(lowered.module)
        .map_err(cli_err)?;
    if args.emit == EmitStage::Tape {
        let tape = Tape::compile(&compiled.module, &func).map_err(cli_err)?;
        return Ok(tape.to_string());
    }
    let wanted = args.emit.snapshot_name();
    compiled
        .snapshots
        .iter()
        .find(|(n, _)| n == wanted)
        .map(|(_, text)| text.clone())
        .ok_or_else(|| cli_err(format!("stage '{wanted}' not produced")))
}

/// Result of `run`: the function outputs plus simulator statistics.
#[derive(Debug)]
pub struct RunReport {
    /// One human-readable block per function result.
    pub outputs: Vec<String>,
    /// One JSON object (`{"shape": ..., "data": ...}`) per result.
    pub outputs_json: Vec<String>,
    /// Simulator statistics.
    pub stats: ExecStats,
}

impl RunReport {
    /// Render per the requested format.
    pub fn render(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Text => {
                let mut out = String::new();
                for line in &self.outputs {
                    out.push_str(line);
                    out.push('\n');
                }
                out.push('\n');
                out.push_str(&self.stats.to_string());
                out
            }
            OutputFormat::Json => json::object(|o| {
                o.array("results", |results| {
                    for output in &self.outputs_json {
                        results.raw(output);
                    }
                })
                .raw("stats", &self.stats.to_json());
            }),
        }
    }
}

/// Execute `run`, recording into `telemetry`: the TorchScript path has
/// no placement stage, so the phases are Parse (source → torch IR),
/// Compile (pipeline + backend plan), Execute.
pub fn run_run(args: &RunArgs, telemetry: &Telemetry) -> Result<RunReport, CliError> {
    let span = telemetry.phase(Phase::Parse);
    let parsed = compile_module(&args.compile);
    span.finish();
    let (lowered, spec) = parsed?;
    let span = telemetry.phase(Phase::Compile);
    let compiled = C4camPipeline::new(spec.clone())
        .compile(lowered.module.clone())
        .map_err(cli_err)?;
    let backend = BackendRegistry::global()
        .get(&args.engine)
        .map_err(cli_err)?;
    let plan = backend
        .compile(&compiled.module, &lowered.name, &spec)
        .map_err(cli_err)?;
    span.finish();

    // Assemble runtime arguments in arg_order.
    let m = &compiled.module;
    let func = m
        .lookup_symbol(&lowered.name)
        .ok_or_else(|| cli_err("compiled function vanished"))?;
    let entry = m.op(func).regions[0][0];
    let arg_values = m.block(entry).args.clone();
    let mut values = Vec::new();
    for (i, &v) in arg_values.iter().enumerate() {
        let shape: Vec<usize> = m
            .kind(m.value_type(v))
            .shape()
            .ok_or_else(|| cli_err("non-tensor function argument"))?
            .iter()
            .map(|&d| d as usize)
            .collect();
        let tensor = if let Some(path) = args.data.get(i) {
            read_csv_tensor(path, &shape)?
        } else {
            deterministic_tensor(&shape, args.random_seed.wrapping_add(i as u64))
        };
        values.push(Value::Tensor(tensor));
    }

    let span = telemetry.phase(Phase::Execute);
    let execution = plan
        .execute(
            &values,
            &ExecOptions::sequential()
                .with_threads(args.threads)
                .with_telemetry(telemetry.clone()),
        )
        .map_err(cli_err)?;
    span.finish();
    let out = execution.outputs;
    let outputs = out
        .iter()
        .enumerate()
        .map(|(i, v)| match v.snapshot_tensor() {
            Some(t) => format!("result[{i}] shape {:?}: {:?}", t.shape(), t.data()),
            None => format!("result[{i}]: {v}"),
        })
        .collect();
    let outputs_json = out
        .iter()
        .map(|v| {
            json::object(|o| match v.snapshot_tensor() {
                Some(t) => {
                    // `Debug` of a `usize` slice is a JSON array, with
                    // the `, ` spacing this output has always had.
                    o.raw("shape", &format!("{:?}", t.shape()))
                        .put("data", t.data());
                }
                None => {
                    o.put("value", v.to_string());
                }
            })
        })
        .collect();
    Ok(RunReport {
        outputs,
        outputs_json,
        stats: execution.stats,
    })
}

/// Execute `place`, returning the printable placement summary.
pub fn run_place(args: &PlaceArgs) -> Result<String, CliError> {
    let spec = load_arch(&args.arch)?;
    let p = place(
        &spec,
        &MappingProblem {
            stored_rows: args.stored_rows,
            feature_dims: args.dims,
            queries: args.queries,
        },
    )
    .map_err(cli_err)?;
    if args.format == OutputFormat::Json {
        return Ok(json::object(|o| {
            o.put("stored_rows", args.stored_rows)
                .put("dims", args.dims)
                .put("queries", args.queries)
                .object("placement", |o| {
                    o.put("rows_used", p.rows_used)
                        .put("row_groups", p.row_groups)
                        .put("col_chunks", p.col_chunks)
                        .put("logical_tiles", p.logical_tiles)
                        .put("batches_per_subarray", p.batches_per_subarray)
                        .put("physical_subarrays", p.physical_subarrays)
                        .put("banks", p.banks)
                        .put("padded_rows", p.padded_rows);
                });
        }));
    }
    Ok(format!(
        "placement for {} stored rows x {} dims ({} queries):\n\
         \x20 rows used per group : {}\n\
         \x20 row groups          : {}\n\
         \x20 column chunks       : {}\n\
         \x20 logical tiles       : {}\n\
         \x20 batches per subarray: {}\n\
         \x20 physical subarrays  : {}\n\
         \x20 banks               : {}",
        args.stored_rows,
        args.dims,
        args.queries,
        p.rows_used,
        p.row_groups,
        p.col_chunks,
        p.logical_tiles,
        p.batches_per_subarray,
        p.physical_subarrays,
        p.banks,
    ))
}

/// Deterministic 0/1 tensor for `--random-seed` runs.
fn deterministic_tensor(shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let data: Vec<f32> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f32::from(u8::from(state & 1 == 1))
        })
        .collect();
    Tensor::from_vec(shape.to_vec(), data).expect("shape")
}

/// Read a CSV of floats (rows = lines) into a tensor of `shape`.
fn read_csv_tensor(path: &str, shape: &[usize]) -> Result<Tensor, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| cli_err(format!("cannot read data file '{path}': {e}")))?;
    let mut data = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        for field in line.split(',') {
            let v: f32 = field
                .trim()
                .parse()
                .map_err(|_| cli_err(format!("{path}:{}: invalid number '{field}'", lineno + 1)))?;
            data.push(v);
        }
    }
    let expected: usize = shape.iter().product();
    if data.len() != expected {
        return Err(cli_err(format!(
            "{path}: expected {expected} values for shape {shape:?}, found {}",
            data.len()
        )));
    }
    Tensor::from_vec(shape.to_vec(), data).map_err(cli_err)
}

/// Load a dataset from disk and adapt it to a [`DatasetWorkload`].
fn load_dataset_workload(
    path: &str,
    format: Option<DatasetFormat>,
    task: DatasetTask,
    limit: Option<usize>,
) -> Result<DatasetWorkload, CliError> {
    let dataset = Dataset::load(std::path::Path::new(path), format).map_err(cli_err)?;
    DatasetWorkload::new(dataset, task, limit).map_err(cli_err)
}

/// Execute `run --dataset`: one experiment over the dataset workload.
pub fn run_dataset(args: &DatasetRunArgs, telemetry: &Telemetry) -> Result<String, CliError> {
    let workload =
        load_dataset_workload(&args.dataset, args.dataset_format, args.task, args.limit)?;
    let spec = match &args.arch {
        Some(path) => load_arch(path)?,
        None => ArchSpec::default(),
    };
    let compiled = Experiment::new(&workload)
        .arch(spec)
        .backend(args.engine.as_str())
        .threads(args.threads)
        .telemetry(telemetry.clone())
        .compile()?;
    let outcome = compiled.run()?;
    if telemetry.enabled() {
        // The host-memory census (`--metrics full`): owners' bytes
        // beside the peak resident set they are part of.
        telemetry.counter("host.input_bytes", compiled.input_bytes() as f64);
        if let Some(peak) = peak_rss_bytes() {
            telemetry.counter(PEAK_RSS_COUNTER, peak);
        }
    }
    let accuracy = workload.class_accuracy(&outcome.predictions);
    Ok(match args.format {
        OutputFormat::Text => format!(
            "dataset {} ({}): {} stored rows x {} dims, {} queries\n\
             accuracy: {:.4}\n\n{}",
            workload.dataset().name(),
            workload.name(),
            workload.stored_rows(),
            workload.dims(),
            outcome.queries,
            accuracy,
            outcome.total
        ),
        OutputFormat::Json => json::object(|o| {
            o.put("dataset", workload.dataset().name())
                .put("task", workload.name())
                .put("stored_rows", workload.stored_rows())
                .put("dims", workload.dims())
                .put("queries", outcome.queries)
                .put("accuracy", accuracy)
                .raw("stats", &outcome.total.to_json());
        }),
    })
}

/// Execute `accuracy`: evaluate the dataset at each requested cell
/// width and render the CAM-vs-CPU report.
pub fn run_accuracy(args: &AccuracyArgs, telemetry: &Telemetry) -> Result<String, CliError> {
    let workload =
        load_dataset_workload(&args.dataset, args.dataset_format, args.task, args.limit)?;
    let mut rows = Vec::with_capacity(args.bits.len() * args.fault_rates.len());
    for &bits in &args.bits {
        let spec = build_arch(
            (args.subarray, args.subarray),
            (4, 4, 8),
            Optimization::Base,
            bits,
        )
        .map_err(cli_err)?;
        for &rate in &args.fault_rates {
            // Rate 0 with no resilience levers is the plain fault-free
            // path (bit-identical, no fault hooks installed).
            let knobs =
                (rate > 0.0 || args.spare_rows > 0 || args.vote > 1).then_some(FaultKnobs {
                    rate,
                    seed: args.fault_seed,
                    spare_rows: args.spare_rows,
                    vote: args.vote,
                });
            rows.push(evaluate_faulty(
                &workload,
                &spec,
                &args.engine,
                args.threads,
                knobs.as_ref(),
                telemetry,
            )?);
        }
    }
    let report = AccuracyReport { rows };
    let rendered = match args.format {
        SweepFormat::Table => report.to_table(),
        SweepFormat::Json => report.to_json(),
        SweepFormat::Csv => report.to_csv(),
    };
    // The binary prints with a trailing newline of its own.
    Ok(rendered.trim_end_matches('\n').to_string())
}

/// Execute `serve`: load the dataset, precompile the default plan,
/// and run the resident service until shutdown. The bound address is
/// printed (and flushed) the moment the listener is ready, so scripts
/// can start a client as soon as the line appears.
pub fn run_serve(args: &ServeArgs, telemetry: &Telemetry) -> Result<String, CliError> {
    let dataset =
        Dataset::load(std::path::Path::new(&args.dataset), args.dataset_format).map_err(cli_err)?;
    let defaults = PlanKey {
        task: args.task.keyword().to_string(),
        bits: args.bits,
        subarray: args.subarray,
        backend: args.engine.clone(),
    };
    let source = DatasetPlanSource::new(
        dataset,
        defaults,
        args.max_batch,
        args.threads,
        telemetry.clone(),
    );
    let cfg = ServeConfig {
        host: args.host.clone(),
        port: args.port,
        admission: AdmissionConfig {
            queue_depth: args.queue_depth,
        },
        cache_capacity: args.cache_cap,
        telemetry: telemetry.clone(),
        ..ServeConfig::default()
    };
    let report = c4cam_server::serve(&cfg, Arc::new(source), |bound| {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "listening on {bound}").and_then(|()| stdout.flush());
    })
    .map_err(cli_err)?;
    Ok(report.summary())
}

/// Execute `loadgen`: probe the server, drive it, and render the
/// report (optionally writing the JSON document to `--out`).
pub fn run_loadgen(args: &LoadgenArgs) -> Result<String, CliError> {
    let (pool_size, _capacity) = c4cam_server::probe_info(&args.addr).map_err(cli_err)?;
    let expected_classes = match &args.verify_dataset {
        Some(path) => {
            let dataset =
                Dataset::load(std::path::Path::new(path), args.dataset_format).map_err(cli_err)?;
            // The backend never affects the reference (quantization
            // depends on bits; the reduction is backend-independent).
            let key = PlanKey {
                task: args.task.keyword().to_string(),
                bits: args.bits,
                subarray: args.subarray,
                backend: "cpu-reference".to_string(),
            };
            let classes = reference_pool_classes(&dataset, &key).map_err(cli_err)?;
            if classes.len() != pool_size {
                return Err(cli_err(format!(
                    "--verify-dataset has a query pool of {} rows but the server reports {}; \
                     point it at the dataset the server loaded",
                    classes.len(),
                    pool_size
                )));
            }
            Some(classes)
        }
        None => None,
    };
    let cfg = LoadgenConfig {
        addr: args.addr.clone(),
        requests: args.requests,
        concurrency: args.concurrency,
        rows_per_request: args.rows_per_request,
        mode: args.mode,
        pool_size,
        expected_classes,
        shutdown_after: args.shutdown,
    };
    let report = c4cam_server::loadgen(&cfg).map_err(cli_err)?;
    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json() + "\n")
            .map_err(|e| cli_err(format!("cannot write report '{path}': {e}")))?;
        tlog::summary(format_args!("wrote load report to {path}"));
    }
    Ok(report.summary())
}

/// The synthetic workloads `sweep` builds when no dataset is given.
const SWEEP_WORKLOADS: &[&str] = &["hdc", "knn", "dtree", "gpu"];

fn unknown_sweep_workload(name: &str) -> CliError {
    cli_err(ParseKeywordError::new("--workload", name, SWEEP_WORKLOADS))
}

/// Build the workload a `sweep` invocation selects, applying the shape
/// overrides over the workload's paper defaults (dataset sweeps fix
/// the shape from the data).
pub fn build_sweep_workload(args: &SweepArgs) -> Result<Box<dyn Workload>, CliError> {
    if let Some(path) = &args.dataset {
        let task = args.workload.parse().map_err(cli_err)?;
        let w = load_dataset_workload(path, args.dataset_format, task, args.limit)?;
        return Ok(Box::new(w));
    }
    match args.workload.as_str() {
        "hdc" => {
            let mut w = HdcWorkload::paper(args.queries.unwrap_or(16));
            if let Some(classes) = args.classes {
                w.classes = classes;
            }
            if let Some(dims) = args.dims {
                w.dims = dims;
            }
            Ok(Box::new(w))
        }
        "knn" => {
            let mut w = KnnWorkload::paper(args.queries.unwrap_or(4));
            if let Some(patterns) = args.classes {
                w.patterns = patterns;
            }
            if let Some(dims) = args.dims {
                w.dims = dims;
            }
            Ok(Box::new(w))
        }
        "dtree" => Ok(Box::new(DtreeWorkload::new(
            args.dims.unwrap_or(12),
            args.classes.unwrap_or(4),
            5,
            args.queries.unwrap_or(8),
            2024,
        ))),
        "gpu" => {
            let mut w = GpuComparisonWorkload::paper(args.queries.unwrap_or(16));
            if let Some(classes) = args.classes {
                w.hdc.classes = classes;
            }
            if let Some(dims) = args.dims {
                w.hdc.dims = dims;
            }
            Ok(Box::new(w))
        }
        other => Err(unknown_sweep_workload(other)),
    }
}

/// Execute `sweep`, returning the rendered report.
pub fn run_sweep(args: &SweepArgs, telemetry: &Telemetry) -> Result<String, CliError> {
    let workload = build_sweep_workload(args)?;
    let plan = SweepPlan::new(workload.as_ref())
        .square_subarrays(args.subarrays.iter().copied())
        .optimizations(args.opts.iter().copied())
        .technologies(args.techs.iter().cloned())
        .bits(args.bits.iter().copied())
        .backends(args.engines.iter().cloned())
        .fault_rates(args.fault_rates.iter().copied())
        .fault_seed(args.fault_seed)
        .threads(args.threads)
        .telemetry(telemetry.clone());
    let outcome = plan.run()?;
    let rendered = match args.format {
        SweepFormat::Table => outcome.to_table(args.pareto),
        SweepFormat::Json => outcome.to_json(args.pareto),
        SweepFormat::Csv => outcome.to_csv(args.pareto),
    };
    // The binary prints with a trailing newline of its own.
    Ok(rendered.trim_end_matches('\n').to_string())
}

/// Dispatch a parsed command; returns the text to print. The
/// executing commands record into a telemetry session when
/// `--trace-out`/`--metrics` ask for it: the trace file is written
/// whether the run succeeds or fails, and the metrics report is
/// appended to a successful run's output.
pub fn execute(command: &Command) -> Result<String, CliError> {
    let traced = |targs: &TelemetryArgs,
                  run: &dyn Fn(&Telemetry) -> Result<String, CliError>|
     -> Result<String, CliError> {
        let session = TelemetrySession::start(targs);
        let result = run(&session.telemetry);
        session.finish(result)
    };
    match command {
        Command::Compile(args) => run_compile(args),
        Command::Run(args) => traced(&args.telemetry, &|t| {
            Ok(run_run(args, t)?.render(args.format))
        }),
        Command::RunDataset(args) => traced(&args.telemetry, &|t| run_dataset(args, t)),
        Command::Place(args) => run_place(args),
        Command::Sweep(args) => traced(&args.telemetry, &|t| run_sweep(args, t)),
        Command::Accuracy(args) => traced(&args.telemetry, &|t| run_accuracy(args, t)),
        Command::Serve(args) => traced(&args.telemetry, &|t| run_serve(args, t)),
        Command::Loadgen(args) => run_loadgen(args),
        Command::BenchGate(args) => run_bench_gate(args).map_err(cli_err),
        Command::Help => Ok(usage()),
        Command::CommandHelp(command) => Ok(command_usage(command)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("c4cam-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path.to_string_lossy().into_owned()
    }

    const KERNEL: &str = "
def forward(self, input: Tensor) -> Tensor:
    others = self.weight.transpose(-2, -1)
    matmul = torch.matmul(input, (others))
    values, indices = torch.ops.aten.topk(matmul, 1, largest=True)
    return values, indices
";

    const SPEC: &str = "
rows_per_subarray: 16
cols_per_subarray: 16
subarrays_per_array: 4
arrays_per_mat: 2
mats_per_bank: 2
";

    #[test]
    fn shape_parsing() {
        assert_eq!(parse_shape("10x8192").unwrap(), vec![10, 8192]);
        assert_eq!(parse_shape("7").unwrap(), vec![7]);
        assert!(parse_shape("").is_err());
        assert!(parse_shape("3x").is_err());
        assert!(parse_shape("0x4").is_err());
        assert!(parse_shape("axb").is_err());
        assert_eq!(parse_shape("8192x8192").unwrap(), vec![8192, 8192]);
        for past in [
            "8193x8192",
            "4611686018427387904x64",
            "2x2x4611686018427387904",
        ] {
            let err = parse_shape(past).unwrap_err();
            assert!(err.message.contains("more than 67108864 elements"), "{err}");
        }
    }

    #[test]
    fn arg_parsing_compile() {
        let cmd = parse_args(&strings(&[
            "compile",
            "--arch",
            "spec.txt",
            "--source",
            "k.py",
            "--input",
            "4x64",
            "--param",
            "weight=8x64",
            "--emit",
            "cim-fused",
        ]))
        .unwrap();
        match cmd {
            Command::Compile(c) => {
                assert_eq!(c.arch, "spec.txt");
                assert_eq!(c.inputs, vec![vec![4, 64]]);
                assert_eq!(c.params, vec![("weight".to_string(), vec![8, 64])]);
                assert_eq!(c.emit, EmitStage::CimFused);
            }
            other => panic!("expected compile, got {other:?}"),
        }
    }

    #[test]
    fn arg_parsing_errors() {
        assert!(parse_args(&strings(&["frobnicate"])).is_err());
        assert!(parse_args(&strings(&["compile", "--source", "k.py"])).is_err());
        assert!(parse_args(&strings(&["compile", "--arch"])).is_err());
        assert!(parse_args(&strings(&[
            "compile", "--arch", "a", "--source", "s", "--emit", "wasm"
        ]))
        .is_err());
        assert!(parse_args(&[]).is_err());
        // The retired switch is unknown like any other flag: no alias.
        let e = parse_args(&strings(&[
            "compile",
            "--arch",
            "a",
            "--source",
            "s",
            "--canonicalize",
        ]))
        .unwrap_err();
        assert!(
            e.message.starts_with("unknown flag '--canonicalize'"),
            "{e}"
        );
    }

    #[test]
    fn compile_emits_each_stage() {
        let spec = write_temp("spec.txt", SPEC);
        let kernel = write_temp("kernel.py", KERNEL);
        for (emit, needle) in [
            (EmitStage::Torch, "torch.matmul"),
            (EmitStage::Cim, "cim.acquire"),
            (EmitStage::CimFused, "cim.similarity"),
            (EmitStage::Partitioned, "cim.similarity_scores"),
            (EmitStage::Cam, "cam.search"),
            // Two inputs: the tape's query body is specialised.
            (EmitStage::Tape, "search_merge"),
        ] {
            let args = CompileArgs {
                arch: spec.clone(),
                source: kernel.clone(),
                inputs: vec![vec![2, 64]],
                params: vec![("weight".to_string(), vec![4, 64])],
                emit,
            };
            let text = run_compile(&args).unwrap();
            assert!(text.contains(needle), "{emit:?} missing {needle}");
        }
    }

    #[test]
    fn run_with_synthetic_data_reports_stats() {
        let spec = write_temp("spec2.txt", SPEC);
        let kernel = write_temp("kernel2.py", KERNEL);
        let args = RunArgs {
            compile: CompileArgs {
                arch: spec,
                source: kernel,
                inputs: vec![vec![2, 64]],
                params: vec![("weight".to_string(), vec![4, 64])],
                emit: EmitStage::Cam,
            },
            data: vec![],
            random_seed: 7,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let report = run_run(&args, &Telemetry::default()).unwrap();
        assert_eq!(report.outputs.len(), 2);
        assert!(report.stats.latency_ns > 0.0);
        assert!(report.render(OutputFormat::Text).contains("latency"));
    }

    #[test]
    fn run_report_renders_json() {
        let spec = write_temp("spec_json.txt", SPEC);
        let kernel = write_temp("kernel_json.py", KERNEL);
        let args = RunArgs {
            compile: CompileArgs {
                arch: spec,
                source: kernel,
                inputs: vec![vec![2, 64]],
                params: vec![("weight".to_string(), vec![4, 64])],
                emit: EmitStage::Cam,
            },
            data: vec![],
            random_seed: 7,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Json,
            telemetry: TelemetryArgs::default(),
        };
        let out = execute(&Command::Run(args)).unwrap();
        assert!(out.starts_with("{\"results\":["), "{out}");
        assert!(out.contains("\"stats\":{"), "{out}");
        assert!(out.contains("\"latency_ns\":"), "{out}");
        assert!(out.ends_with('}'), "{out}");
    }

    #[test]
    fn every_registered_engine_agrees_with_walk_on_cli_runs() {
        let spec = write_temp("spec_eng.txt", SPEC);
        let kernel = write_temp("kernel_eng.py", KERNEL);
        let mk = |engine: &str| RunArgs {
            compile: CompileArgs {
                arch: spec.clone(),
                source: kernel.clone(),
                inputs: vec![vec![2, 64]],
                params: vec![("weight".to_string(), vec![4, 64])],
                emit: EmitStage::Cam,
            },
            data: vec![],
            random_seed: 11,
            engine: engine.to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let walk = run_run(&mk("walk"), &Telemetry::default()).unwrap();
        for name in BackendRegistry::global().names() {
            let report = run_run(&mk(name), &Telemetry::default()).unwrap();
            assert_eq!(walk.outputs, report.outputs, "{name}");
        }
        // Device-exact backends report identical statistics too.
        let tape = run_run(&mk("tape"), &Telemetry::default()).unwrap();
        assert_eq!(walk.stats, tape.stats);
    }

    #[test]
    fn run_with_csv_data() {
        let spec = write_temp("spec3.txt", SPEC);
        let kernel = write_temp("kernel3.py", KERNEL);
        // queries: 2 rows of 8; weight: 4 rows of 8.
        let q = write_temp("q.csv", "1,0,1,0,1,0,1,0\n0,1,0,1,0,1,0,1\n");
        let w = write_temp(
            "w.csv",
            "1,0,1,0,1,0,1,0\n0,1,0,1,0,1,0,1\n1,1,1,1,0,0,0,0\n0,0,0,0,1,1,1,1\n",
        );
        let args = RunArgs {
            compile: CompileArgs {
                arch: spec,
                source: kernel,
                inputs: vec![vec![2, 8]],
                params: vec![("weight".to_string(), vec![4, 8])],
                emit: EmitStage::Cam,
            },
            data: vec![q, w],
            random_seed: 0,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let report = run_run(&args, &Telemetry::default()).unwrap();
        // Query 0 == weight row 0, query 1 == weight row 1.
        assert!(
            report.outputs[1].contains("[0.0, 1.0]"),
            "{:?}",
            report.outputs
        );
    }

    #[test]
    fn csv_shape_mismatch_is_reported() {
        let path = write_temp("bad.csv", "1,2,3\n");
        let e = read_csv_tensor(&path, &[2, 2]).unwrap_err();
        assert!(e.message.contains("expected 4"), "{e}");
    }

    #[test]
    fn place_reports_table1_numbers() {
        let spec = write_temp(
            "spec4.txt",
            "
rows_per_subarray: 32
cols_per_subarray: 32
subarrays_per_array: 8
arrays_per_mat: 4
mats_per_bank: 4
optimization: density
",
        );
        let out = run_place(&PlaceArgs {
            arch: spec.clone(),
            stored_rows: 10,
            dims: 8192,
            queries: 1,
            format: OutputFormat::Text,
        })
        .unwrap();
        assert!(out.contains("physical subarrays  : 86"), "{out}");
        let json = run_place(&PlaceArgs {
            arch: spec,
            stored_rows: 10,
            dims: 8192,
            queries: 1,
            format: OutputFormat::Json,
        })
        .unwrap();
        assert!(json.contains("\"physical_subarrays\":86"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn threads_flag_parses_and_is_validated() {
        let cmd = parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--threads",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.threads, 4);
                assert_eq!(r.engine, "tape");
            }
            other => panic!("expected run, got {other:?}"),
        }
        // Zero or garbage thread counts are rejected.
        assert!(parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--threads",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--threads",
            "many"
        ]))
        .is_err());
        // The walker oracle is single-threaded.
        assert!(parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--engine",
            "walk",
            "--threads",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn sharded_cli_run_matches_sequential() {
        let spec = write_temp("spec_thr.txt", SPEC);
        let kernel = write_temp("kernel_thr.py", KERNEL);
        let mk = |threads| RunArgs {
            compile: CompileArgs {
                arch: spec.clone(),
                source: kernel.clone(),
                inputs: vec![vec![2, 64]],
                params: vec![("weight".to_string(), vec![4, 64])],
                emit: EmitStage::Cam,
            },
            data: vec![],
            random_seed: 11,
            engine: "tape".to_string(),
            threads,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let seq = run_run(&mk(1), &Telemetry::default()).unwrap();
        let par = run_run(&mk(4), &Telemetry::default()).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn sweep_args_parse_with_defaults() {
        let cmd = parse_args(&strings(&["sweep"])).unwrap();
        match cmd {
            Command::Sweep(s) => {
                assert_eq!(s.workload, "hdc");
                assert_eq!(s.subarrays, vec![16, 32, 64, 128, 256]);
                assert_eq!(s.opts.len(), 4);
                assert_eq!(s.techs, vec![("default".to_string(), None)]);
                assert_eq!(s.bits, vec![1]);
                assert_eq!(s.engines, vec!["tape".to_string()]);
                assert_eq!(s.format, SweepFormat::Table);
                assert!(!s.pareto);
                assert_eq!(s.queries, None);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
    }

    #[test]
    fn sweep_args_parse_with_overrides() {
        let cmd = parse_args(&strings(&[
            "sweep",
            "--workload",
            "knn",
            "--queries",
            "8",
            "--subarrays",
            "32,64",
            "--opts",
            "base,power+density",
            "--techs",
            "default,cmos-16nm",
            "--bits",
            "1,2",
            "--engine",
            "tape,walk",
            "--threads",
            "1",
            "--pareto",
            "--format",
            "csv",
        ]))
        .unwrap();
        match cmd {
            Command::Sweep(s) => {
                assert_eq!(s.workload, "knn");
                assert_eq!(s.queries, Some(8));
                assert_eq!(s.subarrays, vec![32, 64]);
                assert_eq!(s.opts, vec![Optimization::Base, Optimization::PowerDensity]);
                assert_eq!(s.techs.len(), 2);
                assert_eq!(s.bits, vec![1, 2]);
                assert_eq!(s.engines, vec!["tape".to_string(), "walk".to_string()]);
                assert_eq!(s.threads, 1);
                assert!(s.pareto);
                assert_eq!(s.format, SweepFormat::Csv);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
    }

    #[test]
    fn cross_command_flags_are_rejected() {
        // sweep-only flags on run/place, and run/place flags on sweep.
        assert!(parse_args(&strings(&[
            "run", "--arch", "a", "--source", "s", "--pareto"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "place",
            "--arch",
            "a",
            "--stored-rows",
            "4",
            "--dims",
            "8",
            "--subarrays",
            "64"
        ]))
        .is_err());
        let e = parse_args(&strings(&["sweep", "--arch", "spec.txt"])).unwrap_err();
        assert!(e.message.contains("not supported by 'sweep'"), "{e}");
        assert!(parse_args(&strings(&["sweep", "--stored-rows", "4"])).is_err());
    }

    #[test]
    fn sweep_arg_errors_are_caught_at_parse_time() {
        // Bad list items, bad formats, bad keywords.
        assert!(parse_args(&strings(&["sweep", "--subarrays", "32,,64"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--subarrays", "0"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--opts", "fastest"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--techs", "sram-7nm"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--bits", "9"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--format", "yaml"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--threads", "0"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--engine", "walk", "--threads", "2"])).is_err());
        // Zero-sized shapes would trip the workload generators' asserts
        // (or blame the architecture spec, for `place`).
        for (command, flag) in [
            (&["sweep"][..], "--classes"),
            (&["sweep"], "--dims"),
            (&["sweep"], "--queries"),
            (&["place", "--arch", "a", "--dims", "8"], "--stored-rows"),
        ] {
            let e = parse_args(&strings(&[command, &[flag, "0"]].concat())).unwrap_err();
            assert_eq!(e.message, format!("{flag} expects a positive integer"));
        }
        // Unknown workloads are a parse-time error (see
        // `accuracy_arg_errors_are_caught`); a hand-built `SweepArgs`
        // still fails at workload construction, with the keyword list.
        let bad = SweepArgs {
            workload: "resnet".to_string(),
            ..SweepArgs::default()
        };
        let e = run_sweep(&bad, &Telemetry::default()).unwrap_err();
        assert!(e.message.contains("hdc|knn|dtree|gpu"), "{e}");
    }

    #[test]
    fn sweep_format_keywords_parse() {
        assert_eq!("table".parse::<SweepFormat>().unwrap(), SweepFormat::Table);
        assert_eq!("json".parse::<SweepFormat>().unwrap(), SweepFormat::Json);
        assert_eq!("csv".parse::<SweepFormat>().unwrap(), SweepFormat::Csv);
        let e = "yaml".parse::<SweepFormat>().unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown --format 'yaml' (expected table|json|csv)"
        );
    }

    #[test]
    fn emit_and_output_format_from_keyword_delegate_to_fromstr() {
        assert_eq!(EmitStage::from_keyword("cam"), Some(EmitStage::Cam));
        assert_eq!(EmitStage::from_keyword("wasm"), None);
        assert_eq!(
            "wasm".parse::<EmitStage>().unwrap_err().to_string(),
            "unknown --emit stage 'wasm' (expected torch|cim|cim-fused|partitioned|cam|tape)"
        );
        assert_eq!(OutputFormat::from_keyword("json"), Some(OutputFormat::Json));
        assert_eq!(
            OutputFormat::from_keyword("csv"),
            None,
            "run/place are text|json"
        );
        assert_eq!(
            "csv".parse::<OutputFormat>().unwrap_err().to_string(),
            "unknown --format 'csv' (expected text|json)"
        );
    }

    fn fixture_path() -> String {
        concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/mini-mnist").to_string()
    }

    #[test]
    fn accuracy_args_parse_with_defaults_and_overrides() {
        let cmd = parse_args(&strings(&["accuracy", "--dataset", "d"])).unwrap();
        match cmd {
            Command::Accuracy(a) => {
                assert_eq!(a.dataset, "d");
                assert_eq!(a.dataset_format, None);
                assert_eq!(a.task, DatasetTask::Hdc);
                assert_eq!(a.limit, None);
                assert_eq!(a.bits, vec![1, 2]);
                assert_eq!(a.subarray, 32);
                assert_eq!(a.engine, "tape");
                assert_eq!(a.threads, 1);
                assert_eq!(a.format, SweepFormat::Table);
            }
            other => panic!("expected accuracy, got {other:?}"),
        }
        let cmd = parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d.csv",
            "--dataset-format",
            "csv",
            "--workload",
            "knn",
            "--limit",
            "16",
            "--bits",
            "1,4",
            "--subarray",
            "64",
            "--engine",
            "walk",
            "--threads",
            "1",
            "--format",
            "csv",
        ]))
        .unwrap();
        match cmd {
            Command::Accuracy(a) => {
                assert_eq!(a.dataset_format, Some(DatasetFormat::Csv));
                assert_eq!(a.task, DatasetTask::Knn);
                assert_eq!(a.limit, Some(16));
                assert_eq!(a.bits, vec![1, 4]);
                assert_eq!(a.subarray, 64);
                assert_eq!(a.engine, "walk");
                assert_eq!(a.format, SweepFormat::Csv);
            }
            other => panic!("expected accuracy, got {other:?}"),
        }
    }

    #[test]
    fn source_run_flags_are_rejected_where_silently_ignored() {
        // --random-seed/--emit configure source
        // compilation and synthetic data; commands that cannot honor
        // them must reject instead of silently ignoring.
        assert!(parse_args(&strings(&["sweep", "--random-seed", "7"])).is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--emit", "cam"])).is_err());
        assert!(parse_args(&strings(&[
            "place",
            "--arch",
            "a",
            "--stored-rows",
            "4",
            "--dims",
            "8",
            "--random-seed",
            "7"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["run", "--dataset", "d", "--random-seed", "7"])).is_err());
        assert!(parse_args(&strings(&["run", "--dataset", "d", "--stored-rows", "4"])).is_err());
        // The defaults still apply when the flags are absent.
        match parse_args(&strings(&["run", "--arch", "a", "--source", "s"])).unwrap() {
            Command::Run(r) => {
                assert_eq!(r.random_seed, 42);
                assert_eq!(r.compile.emit, EmitStage::Cam);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn accuracy_arg_errors_are_caught() {
        // Missing the dataset, bad formats, bad values, foreign flags.
        assert!(parse_args(&strings(&["accuracy"])).is_err());
        assert!(parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d",
            "--dataset-format",
            "npz"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--limit", "0"])).is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--bits", "5"])).is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--subarray", "0"])).is_err());
        assert!(parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d",
            "--arch",
            "spec.txt"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--pareto"])).is_err());
        assert!(parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d",
            "--engine",
            "walk",
            "--threads",
            "2"
        ]))
        .is_err());
        // Dataset flags stay off the other commands.
        assert!(parse_args(&strings(&[
            "place",
            "--arch",
            "a",
            "--stored-rows",
            "4",
            "--dims",
            "8",
            "--dataset",
            "d"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "run", "--arch", "a", "--source", "s", "--limit", "4"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--subarray",
            "4"
        ]))
        .is_err());
        // An unknown task is a parse-time error carrying the keyword
        // list, on every command that takes a dataset task; nothing is
        // read from disk first.
        for args in [
            vec!["accuracy", "--dataset", "/nonexistent"],
            vec!["run", "--dataset", "/nonexistent"],
            vec!["serve", "--dataset", "/nonexistent"],
            vec!["sweep", "--dataset", "/nonexistent"],
            vec!["loadgen", "--addr", "h:1"],
        ] {
            let mut args = strings(&args);
            args.extend(strings(&["--workload", "dtree"]));
            let e = parse_args(&args).unwrap_err();
            assert!(e.message.contains("expected hdc|knn)"), "{args:?}: {e}");
        }
        let e = parse_args(&strings(&["sweep", "--workload", "resnet"])).unwrap_err();
        assert!(e.message.contains("expected hdc|knn|dtree|gpu"), "{e}");
    }

    #[test]
    fn run_dataset_args_parse_and_reject_source() {
        let cmd = parse_args(&strings(&[
            "run",
            "--dataset",
            "dir",
            "--workload",
            "knn",
            "--limit",
            "8",
            "--format",
            "json",
        ]))
        .unwrap();
        match cmd {
            Command::RunDataset(r) => {
                assert_eq!(r.dataset, "dir");
                assert_eq!(r.task, DatasetTask::Knn);
                assert_eq!(r.limit, Some(8));
                assert_eq!(r.arch, None);
                assert_eq!(r.format, OutputFormat::Json);
            }
            other => panic!("expected run --dataset, got {other:?}"),
        }
        let e = parse_args(&strings(&["run", "--dataset", "dir", "--source", "k.py"])).unwrap_err();
        assert!(e.message.contains("run --dataset"), "{e}");
    }

    #[test]
    fn accuracy_on_the_fixture_matches_cpu_exactly_in_every_format() {
        let args = |format: SweepFormat| AccuracyArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: DatasetTask::Hdc,
            limit: Some(16),
            bits: vec![1, 2],
            subarray: 32,
            engine: "tape".to_string(),
            threads: 1,
            fault_rates: vec![0.0],
            fault_seed: 0,
            spare_rows: 0,
            vote: 1,
            format,
            telemetry: TelemetryArgs::default(),
        };
        let csv = run_accuracy(&args(SweepFormat::Csv), &Telemetry::default()).unwrap();
        assert!(csv.starts_with("task,dataset,stored_rows,"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + 2 bit widths: {csv}");
        for line in csv.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields[0], "dataset-hdc");
            assert_eq!(fields[1], "mini-mnist");
            // cam_accuracy == cpu_accuracy and agreement == 1.
            assert_eq!(fields[9], fields[10], "{line}");
            assert_eq!(fields[11], "1", "{line}");
        }
        let table = run_accuracy(&args(SweepFormat::Table), &Telemetry::default()).unwrap();
        assert!(table.contains("mini-mnist"), "{table}");
        let json = run_accuracy(&args(SweepFormat::Json), &Telemetry::default()).unwrap();
        assert!(json.contains("\"agreement\":1"), "{json}");
        assert!(json.contains("\"query_phase\":{"), "{json}");
    }

    #[test]
    fn accuracy_is_bit_identical_across_engines_and_threads() {
        let mk = |engine: &str, threads| AccuracyArgs {
            dataset: fixture_path(),
            dataset_format: Some(DatasetFormat::Idx),
            task: DatasetTask::Knn,
            limit: Some(12),
            bits: vec![2],
            subarray: 32,
            engine: engine.to_string(),
            threads,
            fault_rates: vec![0.0],
            fault_seed: 0,
            spare_rows: 0,
            vote: 1,
            format: SweepFormat::Csv,
            telemetry: TelemetryArgs::default(),
        };
        let walk = run_accuracy(&mk("walk", 1), &Telemetry::default()).unwrap();
        let tape = run_accuracy(&mk("tape", 1), &Telemetry::default()).unwrap();
        let sharded = run_accuracy(&mk("tape", 4), &Telemetry::default()).unwrap();
        // The engine/threads columns differ by construction. The
        // accuracy and stats columns must be bit-identical everywhere:
        // a sharded fault-free run reports its priced schedule.
        let cols = |csv: &str, lo: usize, hi: usize| -> Vec<String> {
            csv.lines()
                .skip(1)
                .map(|l| {
                    let f: Vec<&str> = l.split(',').collect();
                    f[lo..hi].join("|")
                })
                .collect()
        };
        assert_eq!(cols(&walk, 9, 12), cols(&tape, 9, 12), "accuracy columns");
        assert_eq!(
            cols(&walk, 9, 12),
            cols(&sharded, 9, 12),
            "accuracy columns"
        );
        assert_eq!(cols(&walk, 12, 14), cols(&tape, 12, 14), "sequential stats");
        assert_eq!(cols(&tape, 12, 14), cols(&sharded, 12, 14), "sharded stats");
    }

    #[test]
    fn run_dataset_executes_the_fixture() {
        let args = DatasetRunArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: DatasetTask::Hdc,
            limit: Some(8),
            arch: None,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let text = run_dataset(&args, &Telemetry::default()).unwrap();
        assert!(text.contains("mini-mnist"), "{text}");
        assert!(text.contains("accuracy:"), "{text}");
        let args = DatasetRunArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: DatasetTask::Knn,
            limit: Some(8),
            arch: None,
            engine: "tape".to_string(),
            threads: 2,
            format: OutputFormat::Json,
            telemetry: TelemetryArgs::default(),
        };
        let json = run_dataset(&args, &Telemetry::default()).unwrap();
        assert!(json.starts_with("{\"dataset\":\"mini-mnist\""), "{json}");
        assert!(json.contains("\"stats\":{"), "{json}");
    }

    #[test]
    fn sweep_dataset_args_parse_and_reject_shape_overrides() {
        let cmd = parse_args(&strings(&[
            "sweep",
            "--dataset",
            "dir",
            "--workload",
            "knn",
            "--limit",
            "4",
            "--subarrays",
            "32",
        ]))
        .unwrap();
        match cmd {
            Command::Sweep(s) => {
                assert_eq!(s.dataset, Some("dir".to_string()));
                assert_eq!(s.limit, Some(4));
                assert_eq!(s.workload, "knn");
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        let e = parse_args(&strings(&["sweep", "--dataset", "dir", "--classes", "4"])).unwrap_err();
        assert!(e.message.contains("sweep --dataset"), "{e}");
        assert!(parse_args(&strings(&["sweep", "--dataset", "dir", "--queries", "4"])).is_err());
    }

    #[test]
    fn sweep_runs_the_dataset_fixture_end_to_end() {
        let args = SweepArgs {
            workload: "hdc".to_string(),
            dataset: Some(fixture_path()),
            dataset_format: None,
            limit: Some(4),
            subarrays: vec![32],
            opts: vec![Optimization::Base],
            bits: vec![1],
            format: SweepFormat::Csv,
            ..SweepArgs::default()
        };
        let out = run_sweep(&args, &Telemetry::default()).unwrap();
        assert!(out.starts_with("workload,subarray_rows"), "{out}");
        assert!(out.contains("dataset-hdc,32,32"), "{out}");
    }

    #[test]
    fn engine_and_format_flags_parse() {
        let cmd = parse_args(&strings(&[
            "run", "--arch", "a", "--source", "s", "--engine", "walk", "--format", "json",
        ]))
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.engine, "walk");
                assert_eq!(r.format, OutputFormat::Json);
                assert_eq!(r.threads, 1);
            }
            other => panic!("expected run, got {other:?}"),
        }
        assert!(parse_args(&strings(&[
            "run", "--arch", "a", "--source", "s", "--engine", "jit"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "place",
            "--arch",
            "a",
            "--stored-rows",
            "4",
            "--dims",
            "8",
            "--format",
            "yaml"
        ]))
        .is_err());
    }

    #[test]
    fn unknown_engine_errors_list_the_registered_backends() {
        for cmd in [
            vec![
                "run", "--arch", "a", "--source", "s", "--engine", "nonsense",
            ],
            vec!["run", "--dataset", "d", "--engine", "nonsense"],
            vec!["accuracy", "--dataset", "d", "--engine", "nonsense"],
            vec!["sweep", "--engine", "nonsense"],
            vec!["sweep", "--engine", "tape,nonsense"],
        ] {
            let e = parse_args(&strings(&cmd)).unwrap_err();
            assert!(e.message.contains("unknown engine 'nonsense'"), "{e}");
            assert!(e.message.contains("tape, walk"), "{e}");
        }
        // `simd` and `trace` are retired names: they fail like any unknown one, never alias.
        for name in ["simd", "trace"] {
            let e = parse_args(&strings(&["run", "--dataset", "d", "--engine", name])).unwrap_err();
            let want = format!("unknown engine '{name}' (registered backends: tape, walk)");
            assert!(e.message.contains(&want), "{e}");
        }
        // The help text embeds the registry's names, so new backends
        // show up without editing the usage string.
        let help = usage();
        for name in BackendRegistry::global().names() {
            assert!(help.contains(name), "usage misses {name}: {help}");
        }
    }

    #[test]
    fn help_is_a_command_not_an_error() {
        for spelling in ["help", "--help", "-h"] {
            let cmd = parse_args(&strings(&[spelling])).unwrap();
            assert!(matches!(cmd, Command::Help), "{spelling}");
            let text = execute(&cmd).unwrap();
            for name in BackendRegistry::global().names() {
                assert!(text.contains(name), "help misses {name}");
            }
        }
    }

    #[test]
    fn telemetry_flags_parse_on_executing_commands() {
        let cmd = parse_args(&strings(&[
            "run",
            "--dataset",
            "d",
            "--trace-out",
            "/tmp/t.json",
            "--metrics",
            "summary",
            "--log-level",
            "debug",
        ]))
        .unwrap();
        match cmd {
            Command::RunDataset(r) => {
                assert_eq!(r.telemetry.trace_out.as_deref(), Some("/tmp/t.json"));
                assert_eq!(r.telemetry.metrics, MetricsMode::Summary);
                assert_eq!(r.telemetry.log_level, Some(LogLevel::Debug));
            }
            other => panic!("expected run --dataset, got {other:?}"),
        }
        match parse_args(&strings(&["sweep", "--metrics", "full"])).unwrap() {
            Command::Sweep(s) => assert_eq!(s.telemetry.metrics, MetricsMode::Full),
            other => panic!("expected sweep, got {other:?}"),
        }
        match parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d",
            "--trace-out",
            "t.json",
        ]))
        .unwrap()
        {
            Command::Accuracy(a) => {
                assert_eq!(a.telemetry.trace_out.as_deref(), Some("t.json"));
                assert_eq!(a.telemetry.metrics, MetricsMode::None);
            }
            other => panic!("expected accuracy, got {other:?}"),
        }
        // Defaults: telemetry fully off.
        match parse_args(&strings(&["run", "--arch", "a", "--source", "s"])).unwrap() {
            Command::Run(r) => assert_eq!(r.telemetry, TelemetryArgs::default()),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_flags_are_rejected_on_non_executing_commands() {
        for flags in [
            vec![
                "compile",
                "--arch",
                "a",
                "--source",
                "s",
                "--trace-out",
                "t",
            ],
            vec![
                "compile",
                "--arch",
                "a",
                "--source",
                "s",
                "--metrics",
                "summary",
            ],
            vec![
                "place",
                "--arch",
                "a",
                "--stored-rows",
                "4",
                "--dims",
                "8",
                "--log-level",
                "debug",
            ],
        ] {
            let e = parse_args(&strings(&flags)).unwrap_err();
            assert!(e.message.contains("is not supported by"), "{e}");
        }
        // Bad keyword values fail at parse time.
        assert!(parse_args(&strings(&["sweep", "--metrics", "yaml"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--log-level", "verbose"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--trace-out"])).is_err());
    }

    #[test]
    fn dataset_run_writes_a_chrome_trace_and_appends_metrics() {
        let dir = std::env::temp_dir().join("c4cam-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run-trace.json");
        let cmd = Command::RunDataset(DatasetRunArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: DatasetTask::Hdc,
            limit: Some(4),
            arch: None,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs {
                trace_out: Some(trace.to_string_lossy().into_owned()),
                metrics: MetricsMode::Summary,
                log_level: None,
            },
        });
        let out = execute(&cmd).unwrap();
        // The metrics report rides after the normal report.
        assert!(out.contains("accuracy:"), "{out}");
        assert!(out.contains("phase breakdown"), "{out}");
        assert!(out.contains("Execute"), "{out}");
        // The trace file is a Chrome trace with all four phase spans.
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        for phase in Phase::ALL {
            assert!(
                text.contains(&format!("\"name\":\"{}\"", phase.name())),
                "missing {phase} in {text}"
            );
        }
        assert!(text.contains("\"cat\":\"op\""), "per-op spans: {text}");
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn torchscript_run_records_parse_compile_execute_phases() {
        let spec = write_temp("spec_tel.txt", SPEC);
        let kernel = write_temp("kernel_tel.py", KERNEL);
        let dir = std::env::temp_dir().join("c4cam-cli-tests");
        let trace = dir.join("ts-trace.json");
        let cmd = Command::Run(RunArgs {
            compile: CompileArgs {
                arch: spec,
                source: kernel,
                inputs: vec![vec![2, 64]],
                params: vec![("weight".to_string(), vec![4, 64])],
                emit: EmitStage::Cam,
            },
            data: vec![],
            random_seed: 7,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs {
                trace_out: Some(trace.to_string_lossy().into_owned()),
                metrics: MetricsMode::Full,
                log_level: None,
            },
        });
        let out = execute(&cmd).unwrap();
        assert!(out.contains("phase breakdown"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        // No placement stage on the TorchScript path.
        for phase in [Phase::Parse, Phase::Compile, Phase::Execute] {
            assert!(
                text.contains(&format!("\"name\":\"{}\"", phase.name())),
                "missing {phase} in {text}"
            );
        }
        assert!(text.contains("\"name\":\"backend:tape\""), "{text}");
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn metrics_mode_keywords_parse() {
        assert_eq!("none".parse::<MetricsMode>().unwrap(), MetricsMode::None);
        assert_eq!(
            "summary".parse::<MetricsMode>().unwrap(),
            MetricsMode::Summary
        );
        assert_eq!("full".parse::<MetricsMode>().unwrap(), MetricsMode::Full);
        let e = "yaml".parse::<MetricsMode>().unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown --metrics 'yaml' (expected none|summary|full)"
        );
    }

    #[test]
    fn fault_flags_parse_with_defaults_and_validation() {
        // Defaults: fault injection fully off.
        match parse_args(&strings(&["accuracy", "--dataset", "d"])).unwrap() {
            Command::Accuracy(a) => {
                assert_eq!(a.fault_rates, vec![0.0]);
                assert_eq!(a.fault_seed, 0);
                assert_eq!(a.spare_rows, 0);
                assert_eq!(a.vote, 1);
            }
            other => panic!("expected accuracy, got {other:?}"),
        }
        // Full override on accuracy.
        match parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d",
            "--fault-rate",
            "0,0.01,0.05",
            "--fault-seed",
            "7",
            "--spare-rows",
            "2",
            "--vote",
            "3",
        ]))
        .unwrap()
        {
            Command::Accuracy(a) => {
                assert_eq!(a.fault_rates, vec![0.0, 0.01, 0.05]);
                assert_eq!(a.fault_seed, 7);
                assert_eq!(a.spare_rows, 2);
                assert_eq!(a.vote, 3);
            }
            other => panic!("expected accuracy, got {other:?}"),
        }
        // The sweep grid takes the fault axis but not the resilience
        // levers.
        match parse_args(&strings(&[
            "sweep",
            "--fault-rate",
            "0,0.02",
            "--fault-seed",
            "9",
        ]))
        .unwrap()
        {
            Command::Sweep(s) => {
                assert_eq!(s.fault_rates, vec![0.0, 0.02]);
                assert_eq!(s.fault_seed, 9);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        let e = parse_args(&strings(&["sweep", "--spare-rows", "2"])).unwrap_err();
        assert!(e.message.contains("not supported by 'sweep'"), "{e}");
        assert!(parse_args(&strings(&["sweep", "--vote", "3"])).is_err());
        // Out-of-range and malformed values fail at parse time.
        assert!(parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d",
            "--fault-rate",
            "1.5"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "accuracy",
            "--dataset",
            "d",
            "--fault-rate",
            "-0.1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--vote", "0"])).is_err());
        // Commands without a device fault surface reject the flags.
        assert!(parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--fault-rate",
            "0.01"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["run", "--dataset", "d", "--fault-seed", "7"])).is_err());
        assert!(parse_args(&strings(&[
            "place",
            "--arch",
            "a",
            "--stored-rows",
            "4",
            "--dims",
            "8",
            "--spare-rows",
            "1"
        ]))
        .is_err());
    }

    #[test]
    fn accuracy_reports_a_fault_rate_sweep_on_the_fixture() {
        let args = |rates: Vec<f64>| AccuracyArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: DatasetTask::Hdc,
            limit: Some(8),
            bits: vec![1, 2],
            subarray: 32,
            engine: "tape".to_string(),
            threads: 1,
            fault_rates: rates,
            fault_seed: 7,
            spare_rows: 1,
            vote: 1,
            format: SweepFormat::Csv,
            telemetry: TelemetryArgs::default(),
        };
        let csv = run_accuracy(&args(vec![0.0, 0.02]), &Telemetry::default()).unwrap();
        // One row per bits × fault rate.
        assert_eq!(csv.lines().count(), 1 + 4, "{csv}");
        let fields: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        // Columns 14..19 are the appended fault columns.
        assert_eq!(fields[0][14], "0", "rate-0 row: {csv}");
        assert_eq!(fields[1][14], "0.02", "{csv}");
        assert_eq!(fields[1][15], "7", "{csv}");
        // The faulty rows materialized fault sites; the seeded run is
        // reproducible byte for byte.
        assert!(fields[1][16].parse::<u64>().unwrap() > 0, "{csv}");
        assert_eq!(
            csv,
            run_accuracy(&args(vec![0.0, 0.02]), &Telemetry::default()).unwrap()
        );
        // Agreement stays exact on the fault-free rows.
        assert_eq!(fields[0][11], "1", "{csv}");
    }

    #[test]
    fn single_threaded_engines_reject_threads_by_capability() {
        let e = parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--engine",
            "walk",
            "--threads",
            "2",
        ]))
        .unwrap_err();
        assert!(e.message.contains("walk backend is single-threaded"), "{e}");
        // A threaded backend accepts the same flag.
        assert!(parse_args(&strings(&[
            "run",
            "--arch",
            "a",
            "--source",
            "s",
            "--engine",
            "tape",
            "--threads",
            "2",
        ]))
        .is_ok());
        // A sweep rejects threads if ANY selected backend is
        // single-threaded.
        assert!(parse_args(&strings(&[
            "sweep",
            "--engine",
            "tape,walk",
            "--threads",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn serve_args_parse_with_defaults_and_overrides() {
        let cmd = parse_args(&strings(&["serve", "--dataset", "d"])).unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.dataset, "d");
                assert_eq!(a.task, DatasetTask::Hdc);
                assert_eq!(a.bits, 2);
                assert_eq!(a.subarray, 32);
                assert_eq!(a.engine, "tape");
                assert_eq!(a.host, "127.0.0.1");
                assert_eq!(a.port, 0);
                assert_eq!(a.max_batch, 16);
                assert_eq!(a.queue_depth, 256);
                assert_eq!(a.cache_cap, 8);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        let cmd = parse_args(&strings(&[
            "serve",
            "--dataset",
            "d",
            "--workload",
            "knn",
            "--bits",
            "1",
            "--subarray",
            "64",
            "--engine",
            "tape",
            "--threads",
            "4",
            "--port",
            "9000",
            "--max-batch",
            "8",
            "--queue-depth",
            "32",
            "--cache-cap",
            "2",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.task, DatasetTask::Knn);
                assert_eq!(a.bits, 1);
                assert_eq!(a.subarray, 64);
                assert_eq!(a.engine, "tape");
                assert_eq!(a.threads, 4);
                assert_eq!(a.port, 9000);
                assert_eq!(a.max_batch, 8);
                assert_eq!(a.queue_depth, 32);
                assert_eq!(a.cache_cap, 2);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_foreign_flags_grids_and_missing_dataset() {
        assert!(parse_args(&strings(&["serve"])).is_err());
        let e = parse_args(&strings(&["serve", "--dataset", "d", "--bits", "1,2"])).unwrap_err();
        assert!(e.message.contains("single --bits"), "{e}");
        for flags in [
            ["--source", "k.py"],
            ["--addr", "h:1"],
            ["--pareto", ""],
            ["--fault-rate", "0.1"],
            ["--limit", "4"],
        ] {
            let mut args = strings(&["serve", "--dataset", "d"]);
            args.push(flags[0].to_string());
            if !flags[1].is_empty() {
                args.push(flags[1].to_string());
            }
            assert!(parse_args(&args).is_err(), "{flags:?} should be rejected");
        }
        // The retired linger knob is unknown like any other flag: no alias.
        let e = parse_args(&strings(&["serve", "--dataset", "d", "--linger-ms", "2"])).unwrap_err();
        assert!(e.message.starts_with("unknown flag '--linger-ms'"), "{e}");
    }

    #[test]
    fn loadgen_args_parse_with_defaults_modes_and_rejections() {
        let cmd = parse_args(&strings(&["loadgen", "--addr", "h:1"])).unwrap();
        match cmd {
            Command::Loadgen(a) => {
                assert_eq!(a.addr, "h:1");
                assert_eq!(a.requests, 64);
                assert_eq!(a.concurrency, 4);
                assert_eq!(a.rows_per_request, 1);
                assert_eq!(a.mode, LoadMode::Closed);
                assert_eq!(a.verify_dataset, None);
                assert!(!a.shutdown);
                assert_eq!(a.out, None);
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        let cmd = parse_args(&strings(&[
            "loadgen",
            "--addr",
            "h:1",
            "--requests",
            "128",
            "--concurrency",
            "8",
            "--rows-per-request",
            "2",
            "--mode",
            "open",
            "--rate",
            "50",
            "--verify-dataset",
            "d",
            "--shutdown",
            "--out",
            "r.json",
        ]))
        .unwrap();
        match cmd {
            Command::Loadgen(a) => {
                assert_eq!(a.requests, 128);
                assert_eq!(a.concurrency, 8);
                assert_eq!(a.rows_per_request, 2);
                assert_eq!(a.mode, LoadMode::Open { rate: 50.0 });
                assert_eq!(a.verify_dataset.as_deref(), Some("d"));
                assert!(a.shutdown);
                assert_eq!(a.out.as_deref(), Some("r.json"));
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        // Mode/rate pairing is validated at parse time.
        assert!(parse_args(&strings(&["loadgen", "--addr", "h:1", "--mode", "open"])).is_err());
        assert!(parse_args(&strings(&["loadgen", "--addr", "h:1", "--rate", "9"])).is_err());
        assert!(parse_args(&strings(&["loadgen", "--addr", "h:1", "--mode", "poisson"])).is_err());
        // Server knobs and --dataset don't belong to loadgen.
        assert!(parse_args(&strings(&["loadgen", "--addr", "h:1", "--port", "1"])).is_err());
        assert!(parse_args(&strings(&["loadgen", "--addr", "h:1", "--dataset", "d"])).is_err());
        // Other commands reject the service flags.
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--addr", "h:1"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--max-batch", "4"])).is_err());
    }

    #[test]
    fn bench_gate_args_parse_with_defaults_and_rejections() {
        let cmd = parse_args(&strings(&["bench-gate"])).unwrap();
        match cmd {
            Command::BenchGate(a) => {
                assert_eq!(a.baseline, "BENCH_baseline.json");
                assert!(!a.short);
                assert_eq!(a.out, None);
            }
            other => panic!("expected BenchGate, got {other:?}"),
        }
        let cmd = parse_args(&strings(&[
            "bench-gate",
            "--baseline",
            "b.json",
            "--short",
            "--out",
            "report.json",
        ]))
        .unwrap();
        match cmd {
            Command::BenchGate(a) => {
                assert_eq!(a.baseline, "b.json");
                assert!(a.short);
                assert_eq!(a.out.as_deref(), Some("report.json"));
            }
            other => panic!("expected BenchGate, got {other:?}"),
        }
        // Foreign flags are rejected; gate flags are rejected elsewhere.
        assert!(parse_args(&strings(&["bench-gate", "--dataset", "d"])).is_err());
        assert!(parse_args(&strings(&["bench-gate", "--addr", "h:1"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--baseline", "b.json"])).is_err());
        assert!(parse_args(&strings(&["loadgen", "--addr", "h:1", "--short"])).is_err());
        assert!(usage().contains("bench-gate"));
    }

    /// The smallest argument list each command form accepts, in
    /// [`COMMANDS`] order.
    const MINIMAL: [&str; 9] = [
        "compile --arch a --source s",
        "run --arch a --source s",
        "run --dataset d",
        "place --arch a --stored-rows 4 --dims 8",
        "sweep",
        "accuracy --dataset d",
        "serve --dataset d",
        "loadgen --addr h:1",
        "bench-gate",
    ];

    /// Parse `MINIMAL[form]` plus one valid use of the flag: a keyword
    /// where one is expected, otherwise `3` (a count, seed, path, host
    /// or list item). A rate also needs the open loop.
    fn parse_with(form: usize, row: &Flag) -> Result<Command, CliError> {
        let keywords = "--input 4x4 --param w=4x4 --emit cam --engine tape --format json \
            --workload knn --opts base --techs default --dataset-format csv --fault-rate 0.1 \
            --mode closed --metrics summary --log-level debug --rate 5 --mode open";
        let keywords: Vec<&str> = keywords.split_whitespace().collect();
        let at = keywords.iter().position(|w| *w == row.name);
        let sample = match (at, row.name) {
            (Some(at), "--rate") => keywords[at..].to_vec(),
            (Some(at), _) => keywords[at..at + 2].to_vec(),
            (None, _) if row.value.is_empty() => vec![row.name],
            (None, _) => vec![row.name, "3"],
        };
        let args: Vec<&str> = MINIMAL[form].split(' ').chain(sample).collect();
        parse_args(&strings(&args))
    }

    #[test]
    fn every_command_accepts_exactly_the_flags_its_rows_list() {
        for (form, label) in COMMANDS.iter().enumerate() {
            for row in &FLAGS {
                // `--dataset` on `run` selects the other form instead
                // of being accepted or rejected by this one.
                if (*label, row.name) == ("run", "--dataset") {
                    continue;
                }
                let parsed = parse_with(form, row);
                if row.commands & (1 << form) != 0 {
                    assert!(parsed.is_ok(), "{label} {}: {parsed:?}", row.name);
                } else {
                    let want = format!("{} is not supported by '{label}'", row.name);
                    assert_eq!(parsed.unwrap_err().message, want);
                }
            }
        }
        // The pairs that parsed and were silently ignored before the
        // table, by name.
        for pairs in [
            "compile: --data --random-seed --stored-rows --dims --queries --engine --threads --format",
            "place: --source --input --param --data --engine --threads",
            "run: --emit --stored-rows --dims --queries",
            "run --dataset: --dims --queries",
            "loadgen: --threads",
            "bench-gate: --threads",
        ] {
            let (label, flags) = pairs.split_once(": ").unwrap();
            let form = COMMANDS.iter().position(|c| *c == label).unwrap();
            for name in flags.split(' ') {
                let e = parse_with(form, row(name)).unwrap_err();
                assert_eq!(e.message, format!("{name} is not supported by '{label}'"));
            }
        }
    }

    #[test]
    fn usage_synopses_name_exactly_the_flags_of_the_table() {
        let help = usage();
        let synopses: Vec<&str> = help.lines().filter(|l| l.starts_with("  c4cam ")).collect();
        assert_eq!(synopses.len(), COMMANDS.len() + 1, "one per form + help");
        for (form, label) in COMMANDS.iter().enumerate() {
            // A flag is the word after an optional `[`; required flags
            // stand bare.
            let mut named: Vec<(String, bool)> = synopses[form]
                .split_whitespace()
                .filter(|w| w.trim_start_matches('[').starts_with("--"))
                .map(|w| {
                    (
                        w.trim_matches(|c| "[].".contains(c)).to_string(),
                        !w.starts_with('['),
                    )
                })
                .collect();
            named.sort();
            let mut listed: Vec<(String, bool)> = FLAGS
                .iter()
                .filter(|row| row.commands & (1 << form) != 0)
                .map(|row| (row.name.to_string(), row.required & (1 << form) != 0))
                .collect();
            listed.sort();
            assert_eq!(named, listed, "synopsis of '{label}'");
        }
        // Nothing in the help, prose included, names a flag without a
        // row.
        for word in help.split(|c: char| !(c.is_ascii_lowercase() || c == '-')) {
            if word.starts_with("--") && word.len() > 2 {
                let known = FLAGS.iter().any(|row| row.name == word);
                assert!(known, "usage names {word}, which has no row");
            }
        }
    }

    #[test]
    fn a_failed_run_still_writes_its_trace() {
        let spec = write_temp("spec_fail.txt", SPEC);
        let kernel = write_temp("kernel_fail.py", KERNEL);
        let wrong_shape = write_temp("wrong_shape.csv", "1,2,3\n");
        let trace = write_temp("failed-run-trace.json", "");
        std::fs::remove_file(&trace).unwrap();
        let args = format!(
            "run --arch {spec} --source {kernel} --input 2x64 --param weight=4x64 \
             --data {wrong_shape} --trace-out {trace} --metrics summary"
        );
        let args: Vec<&str> = args.split_whitespace().collect();
        // The run's own error comes back, without a metrics report.
        let e = execute(&parse_args(&strings(&args)).unwrap()).unwrap_err();
        assert!(e.message.contains("expected 128 values"), "{e}");
        assert!(!e.message.contains("phase breakdown"), "{e}");
        let text = std::fs::read_to_string(&trace).expect("the trace of a failed run");
        let json = json::Json::parse(&text).expect("a well-formed trace");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        // The run failed assembling its arguments, after both phases.
        for phase in [Phase::Parse, Phase::Compile] {
            assert!(
                names.contains(&phase.name()),
                "missing {phase} in {names:?}"
            );
        }
        assert!(!names.contains(&Phase::Execute.name()), "{names:?}");
        std::fs::remove_file(&trace).ok();
    }
}
