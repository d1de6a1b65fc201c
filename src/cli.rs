//! Command-line interface logic for the `c4cam` binary.
//!
//! ```text
//! c4cam compile --arch spec.txt --source kernel.py \
//!               --input 10x8192 --param weight=10x8192 \
//!               [--emit torch|cim|cim-fused|partitioned|cam] [--canonicalize]
//! c4cam run     --arch spec.txt --source kernel.py \
//!               --input 10x8192 --param weight=10x8192 \
//!               [--data input.csv --data weight.csv | --random-seed 42]
//! c4cam place   --arch spec.txt --stored-rows N --dims D [--queries Q]
//! c4cam run     --dataset DIR|FILE.csv [--dataset-format idx|csv]
//!               [--workload hdc|knn] [--limit N] [--arch spec.txt]
//! c4cam sweep   [--workload hdc|knn|dtree|gpu] [--subarrays 16,32,...]
//!               [--opts base,power,...] [--techs default,fefet-45nm,...]
//!               [--bits 1,2] [--pareto] [--format table|json|csv]
//!               [--dataset DIR|FILE.csv [--limit N]]
//!               [--fault-rate R,R,...] [--fault-seed N]
//! c4cam accuracy --dataset DIR|FILE.csv [--dataset-format idx|csv]
//!               [--workload hdc|knn] [--limit N] [--bits 1,2]
//!               [--subarray N] [--engine NAME] [--threads N]
//!               [--fault-rate R,R,...] [--fault-seed N]
//!               [--spare-rows N] [--vote K]
//!               [--format table|json|csv]
//! c4cam serve   --dataset DIR|FILE.csv [--workload hdc|knn] [--bits B]
//!               [--subarray N] [--engine NAME] [--threads N]
//!               [--host H] [--port P] [--max-batch N] [--linger-ms MS]
//!               [--queue-depth N] [--cache-cap N]
//! c4cam loadgen --addr HOST:PORT [--requests N] [--concurrency N]
//!               [--rows-per-request N] [--mode closed|open [--rate R]]
//!               [--verify-dataset DIR|FILE.csv] [--shutdown]
//!               [--out FILE.json]
//! ```
//!
//! `--engine` names resolve through [`c4cam_hal::BackendRegistry`]
//! (`tape`, `trace`, `walk`); `sweep` accepts a
//! comma-separated list as an extra grid axis.
//!
//! The argument parsing and command execution live here (unit-tested);
//! `src/bin/c4cam.rs` is a thin wrapper.

use crate::accuracy::{evaluate_faulty, AccuracyReport, FaultKnobs};
use crate::benchgate::{run_bench_gate, BenchGateArgs};
use crate::driver::{build_arch, DriverError, Experiment, ParseKeywordError};
use crate::service::{reference_pool_classes, DatasetPlanSource};
use crate::sweep::SweepPlan;
use c4cam_arch::tech::TechnologyModel;
use c4cam_arch::{parse_spec, ArchSpec, Optimization};
use c4cam_camsim::ExecStats;
use c4cam_core::mapping::{place, MappingProblem};
use c4cam_core::pipeline::{C4camPipeline, PipelineOptions, Target};
use c4cam_datasets::{Dataset, DatasetFormat, DatasetTask, DatasetWorkload};
use c4cam_frontend::{parse_torchscript, FrontendConfig};
use c4cam_hal::{BackendRegistry, ExecOptions};
use c4cam_ir::print::print_module;
use c4cam_runtime::Value;
use c4cam_server::protocol::PlanKey;
use c4cam_server::{AdmissionConfig, LoadMode, LoadgenConfig, ServeConfig};
use c4cam_telemetry::export::{chrome_trace, json_lines};
use c4cam_telemetry::json::num_f32 as json_f32;
use c4cam_telemetry::log::LogLevel;
use c4cam_telemetry::metrics::MetricsReport;
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

/// Which IR stage `compile` emits.
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
            _ => Err(ParseKeywordError::new(
                "--emit stage",
                s,
                &["torch", "cim", "cim-fused", "partitioned", "cam"],
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
            EmitStage::Cam => "cam-map",
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
    /// Run the canonicalizer.
    pub canonicalize: bool,
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

/// Telemetry configuration shared by `run`, `sweep`, and `accuracy`:
/// the recorder is enabled exactly when a trace file or a metrics
/// report was requested, so the default run pays nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryArgs {
    /// Trace output path (`--trace-out`): Chrome trace-event JSON, or
    /// JSON-lines when the path ends in `.jsonl`.
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

    /// Drain the recorder: write `--trace-out` (if requested) and
    /// append the `--metrics` report to `output`.
    fn finish(self, output: &mut String) -> Result<(), CliError> {
        let Some(recorder) = self.recorder else {
            return Ok(());
        };
        let events = recorder.events();
        if let Some(path) = &self.args.trace_out {
            let text = if path.ends_with(".jsonl") {
                json_lines(&events)
            } else {
                chrome_trace(&events)
            };
            std::fs::write(path, text)
                .map_err(|e| cli_err(format!("cannot write trace file '{path}': {e}")))?;
            tlog::summary(format_args!("wrote trace to {path}"));
        }
        let report = match self.args.metrics {
            MetricsMode::None => return Ok(()),
            MetricsMode::Summary => MetricsReport::from_events(&events).render_summary(5),
            MetricsMode::Full => MetricsReport::from_events(&events).render_full(5),
        };
        if !output.is_empty() && !output.ends_with('\n') {
            output.push('\n');
        }
        output.push('\n');
        output.push_str(report.trim_end_matches('\n'));
        Ok(())
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
    /// than one thread the batch executor shards the query loop — or,
    /// for single-query workloads, the subarray groups within a query —
    /// across `std::thread` workers.
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
    /// Task keyword (`hdc` = nearest prototype, `knn` = nearest
    /// training sample).
    pub task: String,
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
    /// Task keyword (`hdc` or `knn`).
    pub task: String,
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
    /// Default task keyword (`hdc` or `knn`).
    pub task: String,
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
    /// Longest a request waits for batch-mates, milliseconds.
    pub linger_ms: u64,
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
    /// Arrival mode (`closed` or `open`).
    pub mode: String,
    /// Target request rate for open-loop mode, requests/second.
    pub rate: Option<f64>,
    /// Dataset path for exact verification against the CPU reference
    /// (must be the dataset the server loaded).
    pub verify_dataset: Option<String>,
    /// Explicit dataset format (inferred from the path when `None`).
    pub dataset_format: Option<DatasetFormat>,
    /// Task keyword of the server's default plan key.
    pub task: String,
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
    /// Technology names to sweep (`default`, `fefet-45nm`,
    /// `cmos-16nm`).
    pub techs: Vec<String>,
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
            techs: vec!["default".to_string()],
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

/// Parse a shape literal like `10x8192`.
pub fn parse_shape(text: &str) -> Result<Vec<i64>, CliError> {
    let dims: Result<Vec<i64>, _> = text.split('x').map(str::parse).collect();
    match dims {
        Ok(d) if !d.is_empty() && d.iter().all(|&x| x > 0) => Ok(d),
        _ => Err(cli_err(format!(
            "invalid shape '{text}' (expected e.g. 10x8192)"
        ))),
    }
}

/// Parse the full argument vector (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().peekable();
    let cmd = it.next().ok_or_else(|| cli_err(usage()))?;
    let mut arch = None;
    let mut source = None;
    let mut inputs = Vec::new();
    let mut params = Vec::new();
    let mut emit: Option<EmitStage> = None;
    let mut canonicalize = false;
    let mut data = Vec::new();
    let mut random_seed: Option<u64> = None;
    let mut stored_rows = None;
    let mut dims = None;
    let mut queries: Option<usize> = None;
    let mut classes: Option<usize> = None;
    let mut engine: Option<String> = None;
    let mut threads = 1usize;
    let mut format: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut subarrays: Option<Vec<usize>> = None;
    let mut opts: Option<Vec<Optimization>> = None;
    let mut techs: Option<Vec<String>> = None;
    let mut bits: Option<Vec<u32>> = None;
    let mut pareto = false;
    let mut dataset: Option<String> = None;
    let mut dataset_format: Option<DatasetFormat> = None;
    let mut limit: Option<usize> = None;
    let mut subarray: Option<usize> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics: Option<MetricsMode> = None;
    let mut log_level: Option<LogLevel> = None;
    let mut fault_rates: Option<Vec<f64>> = None;
    let mut fault_seed: Option<u64> = None;
    let mut spare_rows: Option<usize> = None;
    let mut vote: Option<usize> = None;
    let mut host: Option<String> = None;
    let mut port: Option<u16> = None;
    let mut max_batch: Option<usize> = None;
    let mut linger_ms: Option<u64> = None;
    let mut queue_depth: Option<usize> = None;
    let mut cache_cap: Option<usize> = None;
    let mut addr: Option<String> = None;
    let mut requests: Option<usize> = None;
    let mut concurrency: Option<usize> = None;
    let mut rows_per_request: Option<usize> = None;
    let mut mode: Option<String> = None;
    let mut rate: Option<f64> = None;
    let mut verify_dataset: Option<String> = None;
    let mut shutdown = false;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut short = false;

    let next_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
     -> Result<String, CliError> {
        it.next()
            .cloned()
            .ok_or_else(|| cli_err(format!("{flag} requires a value")))
    };

    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--arch" => arch = Some(next_value(&mut it, flag)?),
            "--source" => source = Some(next_value(&mut it, flag)?),
            "--input" => inputs.push(parse_shape(&next_value(&mut it, flag)?)?),
            "--param" => {
                let v = next_value(&mut it, flag)?;
                let (name, shape) = v
                    .split_once('=')
                    .ok_or_else(|| cli_err("--param expects name=SHAPE"))?;
                params.push((name.to_string(), parse_shape(shape)?));
            }
            "--emit" => {
                let v = next_value(&mut it, flag)?;
                emit = Some(
                    EmitStage::from_keyword(&v)
                        .ok_or_else(|| cli_err(format!("unknown --emit stage '{v}'")))?,
                );
            }
            "--canonicalize" => canonicalize = true,
            "--data" => data.push(next_value(&mut it, flag)?),
            "--random-seed" => {
                random_seed = Some(
                    next_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| cli_err("--random-seed expects an integer"))?,
                );
            }
            "--stored-rows" => {
                stored_rows = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .map_err(|_| cli_err("--stored-rows expects an integer"))?,
                );
            }
            "--dims" => {
                dims = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .map_err(|_| cli_err("--dims expects an integer"))?,
                );
            }
            "--queries" => {
                queries = Some(
                    next_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| cli_err("--queries expects an integer"))?,
                );
            }
            "--classes" => {
                classes = Some(
                    next_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| cli_err("--classes expects an integer"))?,
                );
            }
            "--engine" => engine = Some(next_value(&mut it, flag)?),
            "--threads" => {
                threads = next_value(&mut it, flag)?
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or_else(|| cli_err("--threads expects a positive integer"))?;
            }
            "--format" => format = Some(next_value(&mut it, flag)?),
            "--workload" => workload = Some(next_value(&mut it, flag)?),
            "--subarrays" => {
                subarrays = Some(parse_list(
                    &next_value(&mut it, flag)?,
                    "--subarrays",
                    |v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| cli_err(format!("invalid subarray size '{v}'")))
                    },
                )?);
            }
            "--opts" => {
                opts = Some(parse_list(&next_value(&mut it, flag)?, "--opts", |v| {
                    Optimization::from_keyword(v).ok_or_else(|| {
                        cli_err(format!(
                            "unknown optimization '{v}' (expected base|power|density|power+density)"
                        ))
                    })
                })?);
            }
            "--techs" => {
                let list = parse_list(&next_value(&mut it, flag)?, "--techs", |v| {
                    // Validate eagerly; the models are rebuilt at run time.
                    parse_tech(v).map(|_| v.to_string())
                })?;
                techs = Some(list);
            }
            "--bits" => {
                bits = Some(parse_list(&next_value(&mut it, flag)?, "--bits", |v| {
                    v.parse::<u32>()
                        .ok()
                        .filter(|&b| (1..=4).contains(&b))
                        .ok_or_else(|| cli_err(format!("invalid bits-per-cell '{v}' (1..=4)")))
                })?);
            }
            "--pareto" => pareto = true,
            "--dataset" => dataset = Some(next_value(&mut it, flag)?),
            "--dataset-format" => {
                dataset_format = Some(next_value(&mut it, flag)?.parse().map_err(cli_err)?);
            }
            "--limit" => {
                limit = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--limit expects a positive integer"))?,
                );
            }
            "--subarray" => {
                subarray = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--subarray expects a positive integer"))?,
                );
            }
            "--fault-rate" => {
                fault_rates = Some(parse_list(
                    &next_value(&mut it, flag)?,
                    "--fault-rate",
                    |v| {
                        v.parse::<f64>()
                            .ok()
                            .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
                            .ok_or_else(|| {
                                cli_err(format!("invalid fault rate '{v}' (expected 0.0..=1.0)"))
                            })
                    },
                )?);
            }
            "--fault-seed" => {
                fault_seed = Some(
                    next_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| cli_err("--fault-seed expects an integer"))?,
                );
            }
            "--spare-rows" => {
                spare_rows = Some(
                    next_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| cli_err("--spare-rows expects an integer"))?,
                );
            }
            "--vote" => {
                vote = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| cli_err("--vote expects a positive integer"))?,
                );
            }
            "--host" => host = Some(next_value(&mut it, flag)?),
            "--port" => {
                port = Some(
                    next_value(&mut it, flag)?
                        .parse::<u16>()
                        .map_err(|_| cli_err("--port expects 0..=65535"))?,
                );
            }
            "--max-batch" => {
                max_batch = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--max-batch expects a positive integer"))?,
                );
            }
            "--linger-ms" => {
                linger_ms = Some(
                    next_value(&mut it, flag)?
                        .parse::<u64>()
                        .map_err(|_| cli_err("--linger-ms expects an integer"))?,
                );
            }
            "--queue-depth" => {
                queue_depth = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--queue-depth expects a positive integer"))?,
                );
            }
            "--cache-cap" => {
                cache_cap = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--cache-cap expects a positive integer"))?,
                );
            }
            "--addr" => addr = Some(next_value(&mut it, flag)?),
            "--requests" => {
                requests = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--requests expects a positive integer"))?,
                );
            }
            "--concurrency" => {
                concurrency = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--concurrency expects a positive integer"))?,
                );
            }
            "--rows-per-request" => {
                rows_per_request = Some(
                    next_value(&mut it, flag)?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| cli_err("--rows-per-request expects a positive integer"))?,
                );
            }
            "--mode" => mode = Some(next_value(&mut it, flag)?),
            "--rate" => {
                rate = Some(
                    next_value(&mut it, flag)?
                        .parse::<f64>()
                        .ok()
                        .filter(|r| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| cli_err("--rate expects a positive number"))?,
                );
            }
            "--verify-dataset" => verify_dataset = Some(next_value(&mut it, flag)?),
            "--shutdown" => shutdown = true,
            "--out" => out = Some(next_value(&mut it, flag)?),
            "--baseline" => baseline = Some(next_value(&mut it, flag)?),
            "--short" => short = true,
            "--trace-out" => trace_out = Some(next_value(&mut it, flag)?),
            "--metrics" => {
                metrics = Some(next_value(&mut it, flag)?.parse().map_err(cli_err)?);
            }
            "--log-level" => {
                log_level = Some(next_value(&mut it, flag)?.parse().map_err(cli_err)?);
            }
            other => return Err(cli_err(format!("unknown flag '{other}'\n{}", usage()))),
        }
    }

    let require = |opt: Option<String>, name: &str| {
        opt.ok_or_else(|| cli_err(format!("missing required {name}\n{}", usage())))
    };
    let out_format = |format: Option<String>| -> Result<OutputFormat, CliError> {
        match format {
            None => Ok(OutputFormat::default()),
            Some(v) => v.parse().map_err(cli_err),
        }
    };
    // Flags are parsed in one namespace; reject cross-command ones
    // explicitly so e.g. `sweep --arch spec.txt` cannot silently sweep
    // the built-in hierarchy instead of the user's spec. Flag groups:
    // compile-ish flags belong to compile/run/place, grid flags to
    // sweep (--bits also to accuracy), dataset flags to run/sweep/
    // accuracy, --subarray to accuracy alone.
    let reject = |groups: &[&[(bool, &str)]], cmd: &str| -> Result<(), CliError> {
        for &(given, flag) in groups.iter().copied().flatten() {
            if given {
                return Err(cli_err(format!("{flag} is not supported by '{cmd}'")));
            }
        }
        Ok(())
    };
    let compile_flags: &[(bool, &str)] = &[
        (arch.is_some(), "--arch"),
        (source.is_some(), "--source"),
        (!inputs.is_empty(), "--input"),
        (!params.is_empty(), "--param"),
        (!data.is_empty(), "--data"),
        (stored_rows.is_some(), "--stored-rows"),
    ];
    let sweep_only: &[(bool, &str)] = &[
        (subarrays.is_some(), "--subarrays"),
        (opts.is_some(), "--opts"),
        (techs.is_some(), "--techs"),
        (classes.is_some(), "--classes"),
        (pareto, "--pareto"),
    ];
    let dataset_flags: &[(bool, &str)] = &[
        (dataset.is_some(), "--dataset"),
        (dataset_format.is_some(), "--dataset-format"),
        (limit.is_some(), "--limit"),
    ];
    let bits_flag: &[(bool, &str)] = &[(bits.is_some(), "--bits")];
    let subarray_flag: &[(bool, &str)] = &[(subarray.is_some(), "--subarray")];
    let workload_flag: &[(bool, &str)] = &[(workload.is_some(), "--workload")];
    // Flags that configure source compilation / synthetic data — they
    // would be silently ignored everywhere else.
    let source_run_flags: &[(bool, &str)] = &[
        (emit.is_some(), "--emit"),
        (canonicalize, "--canonicalize"),
        (random_seed.is_some(), "--random-seed"),
    ];
    // Telemetry flags belong to the executing commands (run/sweep/
    // accuracy); compile and place never execute anything to trace.
    let telemetry_flags: &[(bool, &str)] = &[
        (trace_out.is_some(), "--trace-out"),
        (metrics.is_some(), "--metrics"),
        (log_level.is_some(), "--log-level"),
    ];
    // Fault injection is a sweep/accuracy concern; the resilience
    // levers (--spare-rows/--vote) are accuracy-only.
    let fault_axis_flags: &[(bool, &str)] = &[
        (fault_rates.is_some(), "--fault-rate"),
        (fault_seed.is_some(), "--fault-seed"),
    ];
    let resilience_flags: &[(bool, &str)] = &[
        (spare_rows.is_some(), "--spare-rows"),
        (vote.is_some(), "--vote"),
    ];
    // Service-mode flag groups: server knobs belong to `serve`, client
    // knobs to `loadgen`.
    let serve_flags: &[(bool, &str)] = &[
        (host.is_some(), "--host"),
        (port.is_some(), "--port"),
        (max_batch.is_some(), "--max-batch"),
        (linger_ms.is_some(), "--linger-ms"),
        (queue_depth.is_some(), "--queue-depth"),
        (cache_cap.is_some(), "--cache-cap"),
    ];
    let loadgen_flags: &[(bool, &str)] = &[
        (addr.is_some(), "--addr"),
        (requests.is_some(), "--requests"),
        (concurrency.is_some(), "--concurrency"),
        (rows_per_request.is_some(), "--rows-per-request"),
        (mode.is_some(), "--mode"),
        (rate.is_some(), "--rate"),
        (verify_dataset.is_some(), "--verify-dataset"),
        (shutdown, "--shutdown"),
        (out.is_some(), "--out"),
    ];
    // Gate knobs belong to `bench-gate` alone (--out is shared with
    // loadgen, so it lives in that group, not here).
    let gate_flags: &[(bool, &str)] = &[(baseline.is_some(), "--baseline"), (short, "--short")];
    match cmd.as_str() {
        "compile" | "place" => {
            reject(
                &[
                    sweep_only,
                    dataset_flags,
                    bits_flag,
                    subarray_flag,
                    workload_flag,
                    telemetry_flags,
                    fault_axis_flags,
                    resilience_flags,
                    serve_flags,
                    loadgen_flags,
                    gate_flags,
                ],
                cmd,
            )?;
            if cmd == "place" {
                reject(&[source_run_flags], cmd)?;
            }
        }
        "run" => {
            reject(
                &[
                    sweep_only,
                    bits_flag,
                    subarray_flag,
                    fault_axis_flags,
                    resilience_flags,
                    serve_flags,
                    loadgen_flags,
                    gate_flags,
                ],
                cmd,
            )?;
            if dataset.is_some() {
                // A dataset run replaces the TorchScript source; only
                // --arch carries over (the spec to simulate on).
                for (given, flag) in [
                    (source.is_some(), "--source"),
                    (!inputs.is_empty(), "--input"),
                    (!params.is_empty(), "--param"),
                    (!data.is_empty(), "--data"),
                    (stored_rows.is_some(), "--stored-rows"),
                    (emit.is_some(), "--emit"),
                    (canonicalize, "--canonicalize"),
                    (random_seed.is_some(), "--random-seed"),
                ] {
                    if given {
                        return Err(cli_err(format!(
                            "{flag} is not supported by 'run --dataset' (the dataset supplies the kernel and the data)"
                        )));
                    }
                }
            } else {
                reject(&[dataset_flags, workload_flag], "run (without --dataset)")?;
            }
        }
        "sweep" => {
            reject(
                &[
                    compile_flags,
                    subarray_flag,
                    source_run_flags,
                    resilience_flags,
                    serve_flags,
                    loadgen_flags,
                    gate_flags,
                ],
                cmd,
            )?;
            if dataset.is_some() && (classes.is_some() || dims.is_some() || queries.is_some()) {
                return Err(cli_err(
                    "--classes/--dims/--queries are not supported with 'sweep --dataset' \
                     (the dataset fixes the shape; use --limit to cap queries)",
                ));
            }
        }
        "accuracy" => reject(
            &[
                compile_flags,
                sweep_only,
                source_run_flags,
                serve_flags,
                loadgen_flags,
                gate_flags,
                &[(queries.is_some(), "--queries"), (dims.is_some(), "--dims")],
            ],
            cmd,
        )?,
        "serve" => reject(
            &[
                compile_flags,
                sweep_only,
                source_run_flags,
                fault_axis_flags,
                resilience_flags,
                loadgen_flags,
                gate_flags,
                &[
                    (queries.is_some(), "--queries"),
                    (dims.is_some(), "--dims"),
                    (format.is_some(), "--format"),
                    (
                        limit.is_some(),
                        "--limit (serve keeps the whole query pool addressable)",
                    ),
                ],
            ],
            cmd,
        )?,
        "loadgen" => reject(
            &[
                compile_flags,
                sweep_only,
                source_run_flags,
                fault_axis_flags,
                resilience_flags,
                serve_flags,
                telemetry_flags,
                gate_flags,
                &[
                    (dataset.is_some(), "--dataset (use --verify-dataset)"),
                    (limit.is_some(), "--limit"),
                    (engine.is_some(), "--engine"),
                    (queries.is_some(), "--queries"),
                    (dims.is_some(), "--dims"),
                    (format.is_some(), "--format"),
                ],
            ],
            cmd,
        )?,
        "bench-gate" => reject(
            &[
                compile_flags,
                sweep_only,
                dataset_flags,
                bits_flag,
                subarray_flag,
                workload_flag,
                source_run_flags,
                telemetry_flags,
                fault_axis_flags,
                resilience_flags,
                serve_flags,
                // Loadgen's client knobs, minus --out (the gate writes
                // its measurement artifact there too).
                &[
                    (addr.is_some(), "--addr"),
                    (requests.is_some(), "--requests"),
                    (concurrency.is_some(), "--concurrency"),
                    (rows_per_request.is_some(), "--rows-per-request"),
                    (mode.is_some(), "--mode"),
                    (rate.is_some(), "--rate"),
                    (verify_dataset.is_some(), "--verify-dataset"),
                    (shutdown, "--shutdown"),
                    (queries.is_some(), "--queries"),
                    (dims.is_some(), "--dims"),
                    (format.is_some(), "--format"),
                    (engine.is_some(), "--engine"),
                ],
            ],
            cmd,
        )?,
        _ => {}
    }
    // Resolve an --engine name through the backend registry; unknown
    // names fail with the registered list.
    let resolve_engine = |name: &str| -> Result<String, CliError> {
        BackendRegistry::global().get(name).map_err(cli_err)?;
        Ok(name.to_string())
    };
    // Threaded execution needs backends whose capabilities allow it.
    let check_threads = |names: &[String], threads: usize| -> Result<(), CliError> {
        if threads > 1 {
            for name in names {
                let backend = BackendRegistry::global().get(name).map_err(cli_err)?;
                if !backend.capabilities().supports_threads {
                    return Err(cli_err(format!(
                        "--threads requires a threaded backend \
                         (the {name} backend is single-threaded)"
                    )));
                }
            }
        }
        Ok(())
    };
    let telemetry = TelemetryArgs {
        trace_out,
        metrics: metrics.unwrap_or_default(),
        log_level,
    };
    match cmd.as_str() {
        "run" if dataset.is_some() => {
            let engine = resolve_engine(engine.as_deref().unwrap_or("tape"))?;
            check_threads(std::slice::from_ref(&engine), threads)?;
            Ok(Command::RunDataset(DatasetRunArgs {
                dataset: dataset.expect("guarded"),
                dataset_format,
                task: workload.unwrap_or_else(|| "hdc".to_string()),
                limit,
                arch,
                engine,
                threads,
                format: out_format(format)?,
                telemetry,
            }))
        }
        "compile" | "run" => {
            let compile = CompileArgs {
                arch: require(arch, "--arch")?,
                source: require(source, "--source")?,
                inputs,
                params,
                emit: emit.unwrap_or(EmitStage::Cam),
                canonicalize,
            };
            if cmd == "compile" {
                Ok(Command::Compile(compile))
            } else {
                let engine = resolve_engine(engine.as_deref().unwrap_or("tape"))?;
                check_threads(std::slice::from_ref(&engine), threads)?;
                Ok(Command::Run(RunArgs {
                    compile,
                    data,
                    random_seed: random_seed.unwrap_or(42),
                    engine,
                    threads,
                    format: out_format(format)?,
                    telemetry,
                }))
            }
        }
        "accuracy" => {
            let engine = resolve_engine(engine.as_deref().unwrap_or("tape"))?;
            check_threads(std::slice::from_ref(&engine), threads)?;
            Ok(Command::Accuracy(AccuracyArgs {
                dataset: require(dataset, "--dataset")?,
                dataset_format,
                task: workload.unwrap_or_else(|| "hdc".to_string()),
                limit,
                bits: bits.unwrap_or_else(|| vec![1, 2]),
                subarray: subarray.unwrap_or(32),
                engine,
                threads,
                fault_rates: fault_rates.unwrap_or_else(|| vec![0.0]),
                fault_seed: fault_seed.unwrap_or(0),
                spare_rows: spare_rows.unwrap_or(0),
                vote: vote.unwrap_or(1),
                format: match format {
                    None => SweepFormat::default(),
                    Some(v) => v.parse().map_err(cli_err)?,
                },
                telemetry,
            }))
        }
        "place" => Ok(Command::Place(PlaceArgs {
            arch: require(arch, "--arch")?,
            stored_rows: stored_rows.ok_or_else(|| cli_err("missing --stored-rows"))?,
            dims: dims.ok_or_else(|| cli_err("missing --dims"))?,
            queries: queries.unwrap_or(1),
            format: out_format(format)?,
        })),
        "sweep" => {
            // The sweep's --engine is a comma-separated list: an
            // extra grid axis.
            let engines = match engine {
                None => vec!["tape".to_string()],
                Some(list) => parse_list(&list, "--engine", |v| resolve_engine(v))?,
            };
            check_threads(&engines, threads)?;
            let defaults = SweepArgs::default();
            Ok(Command::Sweep(SweepArgs {
                workload: workload.unwrap_or(defaults.workload),
                dataset,
                dataset_format,
                limit,
                queries,
                classes,
                dims,
                subarrays: subarrays.unwrap_or(defaults.subarrays),
                opts: opts.unwrap_or(defaults.opts),
                techs: techs.unwrap_or(defaults.techs),
                bits: bits.unwrap_or(defaults.bits),
                engines,
                fault_rates: fault_rates.unwrap_or(defaults.fault_rates),
                fault_seed: fault_seed.unwrap_or(defaults.fault_seed),
                threads,
                pareto,
                format: match format {
                    None => SweepFormat::default(),
                    Some(v) => v.parse().map_err(cli_err)?,
                },
                telemetry,
            }))
        }
        "serve" => {
            let engine = resolve_engine(engine.as_deref().unwrap_or("tape"))?;
            check_threads(std::slice::from_ref(&engine), threads)?;
            // Serve takes one default cell width, not a grid axis.
            let bits = match bits {
                None => 2,
                Some(list) if list.len() == 1 => list[0],
                Some(_) => {
                    return Err(cli_err(
                        "serve expects a single --bits value (clients override per request)",
                    ))
                }
            };
            Ok(Command::Serve(ServeArgs {
                dataset: require(dataset, "--dataset")?,
                dataset_format,
                task: workload.unwrap_or_else(|| "hdc".to_string()),
                bits,
                subarray: subarray.unwrap_or(32),
                engine,
                threads,
                host: host.unwrap_or_else(|| "127.0.0.1".to_string()),
                port: port.unwrap_or(0),
                max_batch: max_batch.unwrap_or(16),
                linger_ms: linger_ms.unwrap_or(2),
                queue_depth: queue_depth.unwrap_or(256),
                cache_cap: cache_cap.unwrap_or(8),
                telemetry,
            }))
        }
        "loadgen" => {
            let mode = mode.unwrap_or_else(|| "closed".to_string());
            match mode.as_str() {
                "closed" => {
                    if rate.is_some() {
                        return Err(cli_err("--rate is only meaningful with --mode open"));
                    }
                }
                "open" => {
                    if rate.is_none() {
                        return Err(cli_err("--mode open requires --rate"));
                    }
                }
                other => {
                    return Err(cli_err(format!(
                        "unknown --mode '{other}' (expected closed|open)"
                    )))
                }
            }
            let bits = match bits {
                None => 2,
                Some(list) if list.len() == 1 => list[0],
                Some(_) => {
                    return Err(cli_err(
                        "loadgen expects a single --bits value (the server's default key)",
                    ))
                }
            };
            Ok(Command::Loadgen(LoadgenArgs {
                addr: require(addr, "--addr")?,
                requests: requests.unwrap_or(64),
                concurrency: concurrency.unwrap_or(4),
                rows_per_request: rows_per_request.unwrap_or(1),
                mode,
                rate,
                verify_dataset,
                dataset_format,
                task: workload.unwrap_or_else(|| "hdc".to_string()),
                bits,
                subarray: subarray.unwrap_or(32),
                shutdown,
                out,
            }))
        }
        "bench-gate" => Ok(Command::BenchGate(BenchGateArgs {
            baseline: baseline.unwrap_or_else(|| "BENCH_baseline.json".to_string()),
            short,
            out,
        })),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(cli_err(format!("unknown command '{other}'\n{}", usage()))),
    }
}

/// Parse a comma-separated list with a per-item parser; empty lists
/// and empty items are rejected.
fn parse_list<T>(
    text: &str,
    flag: &str,
    mut item: impl FnMut(&str) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    let items: Vec<&str> = text.split(',').map(str::trim).collect();
    if items.iter().any(|s| s.is_empty()) {
        return Err(cli_err(format!(
            "{flag} expects a non-empty comma-separated list, got '{text}'"
        )));
    }
    items.into_iter().map(&mut item).collect()
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

/// Usage text. The `--engine` alternatives are generated from the
/// [`BackendRegistry`], so the help stays in sync with the registered
/// backends.
pub fn usage() -> String {
    let engines = BackendRegistry::global().names().join("|");
    format!(
        "usage:\n  c4cam compile --arch SPEC --source KERNEL.py --input SHAPE [--param name=SHAPE]... [--emit torch|cim|cim-fused|partitioned|cam] [--canonicalize]\n  c4cam run     --arch SPEC --source KERNEL.py --input SHAPE [--param name=SHAPE]... [--data file.csv]... [--random-seed N] [--engine {engines}] [--threads N] [--format text|json]\n  c4cam run     --dataset DIR|FILE.csv [--dataset-format idx|csv] [--workload hdc|knn] [--limit N] [--arch SPEC] [--engine {engines}] [--threads N] [--format text|json]\n  c4cam place   --arch SPEC --stored-rows N --dims D [--queries Q] [--format text|json]\n  c4cam sweep   [--workload hdc|knn|dtree|gpu] [--queries N] [--classes N] [--dims D] [--subarrays N,N,...] [--opts base,power,density,power+density] [--techs default,fefet-45nm,cmos-16nm] [--bits 1,2] [--engine {engines},...] [--threads N] [--pareto] [--format table|json|csv] [--dataset DIR|FILE.csv [--dataset-format idx|csv] [--limit N]] [--fault-rate R,R,...] [--fault-seed N]\n  c4cam accuracy --dataset DIR|FILE.csv [--dataset-format idx|csv] [--workload hdc|knn] [--limit N] [--bits 1,2] [--subarray N] [--engine {engines}] [--threads N] [--fault-rate R,R,...] [--fault-seed N] [--spare-rows N] [--vote K] [--format table|json|csv]\n  c4cam serve   --dataset DIR|FILE.csv [--dataset-format idx|csv] [--workload hdc|knn] [--bits B] [--subarray N] [--engine {engines}] [--threads N] [--host H] [--port P] [--max-batch N] [--linger-ms MS] [--queue-depth N] [--cache-cap N]\n  c4cam loadgen --addr HOST:PORT [--requests N] [--concurrency N] [--rows-per-request N] [--mode closed|open [--rate R]] [--verify-dataset DIR|FILE.csv [--dataset-format idx|csv] [--workload hdc|knn] [--bits B] [--subarray N]] [--shutdown] [--out FILE.json]\n  c4cam bench-gate [--baseline FILE.json] [--short] [--out FILE.json]\n  c4cam help\n\nbench gate:\n  bench-gate re-runs the search/engine microbenchmark workloads in-process and fails when any is more than 25% over the committed baseline (default BENCH_baseline.json), after scaling budgets by a host-calibration anchor; bless a new baseline with UPDATE_BASELINE=1 c4cam bench-gate; --short uses the small CI measurement window and --out writes the measurements as JSON\n\nservice mode:\n  serve loads the dataset and compiles the default plan once, then answers line-delimited JSON classify requests over TCP, coalescing concurrent requests into batched device runs; loadgen drives a running server and reports sustained qps and p50/p90/p99 latency (--verify-dataset checks every response against the CPU reference exactly)\n\nfault injection (sweep/accuracy):\n  --fault-rate R,R,...       seeded device fault rates to evaluate (stuck-at + drift + transient; 0 = off)\n  --fault-seed N             seed of the deterministic fault-site hash streams\n  --spare-rows N             spare rows per subarray for stuck-row remapping (accuracy only)\n  --vote K                   k-modular redundant-search voting (accuracy only)\n\ntelemetry (run/sweep/accuracy):\n  --trace-out PATH           write a Chrome trace-event JSON (load in Perfetto / chrome://tracing); a .jsonl extension selects JSON-lines instead\n  --metrics none|summary|full  append a per-phase/per-op metrics report to the output\n  --log-level off|summary|debug  stderr diagnostics (alias for the C4CAM_LOG environment variable)"
    )
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

/// Execute `compile`, returning the emitted IR text.
pub fn run_compile(args: &CompileArgs) -> Result<String, CliError> {
    let (lowered, spec) = compile_module(args)?;
    let target = if args.emit == EmitStage::Partitioned {
        Target::HostLoops
    } else {
        Target::CamDevice
    };
    let compiled = C4camPipeline::new(spec)
        .with_options(PipelineOptions {
            keep_snapshots: true,
            target,
            canonicalize: args.canonicalize,
            ..PipelineOptions::default()
        })
        .compile(lowered.module)
        .map_err(cli_err)?;
    let wanted = args.emit.snapshot_name();
    // Canonicalize runs last: when requested together with the final
    // stage, emit the canonicalized module instead of the snapshot.
    if args.canonicalize && matches!(args.emit, EmitStage::Cam | EmitStage::Partitioned) {
        return Ok(print_module(&compiled.module));
    }
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
            OutputFormat::Json => format!(
                "{{\"results\":[{}],\"stats\":{}}}",
                self.outputs_json.join(","),
                self.stats.to_json()
            ),
        }
    }
}

/// Execute `run`.
pub fn run_run(args: &RunArgs) -> Result<RunReport, CliError> {
    run_run_with_telemetry(args, &Telemetry::default())
}

/// [`run_run`] recording into `telemetry`: the TorchScript path has no
/// placement stage, so the phases are Parse (source → torch IR),
/// Compile (pipeline + backend plan), Execute.
fn run_run_with_telemetry(args: &RunArgs, telemetry: &Telemetry) -> Result<RunReport, CliError> {
    let span = telemetry.phase(Phase::Parse);
    let parsed = compile_module(&args.compile);
    span.finish();
    let (lowered, spec) = parsed?;
    let span = telemetry.phase(Phase::Compile);
    let compiled = C4camPipeline::new(spec.clone())
        .with_options(PipelineOptions {
            canonicalize: args.compile.canonicalize,
            ..PipelineOptions::default()
        })
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
        .map(|v| match v.snapshot_tensor() {
            Some(t) => format!(
                "{{\"shape\":{:?},\"data\":[{}]}}",
                t.shape(),
                t.data()
                    .iter()
                    .map(|&x| json_f32(x))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            None => format!("{{\"value\":\"{v}\"}}"),
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
        return Ok(format!(
            concat!(
                "{{\"stored_rows\":{},\"dims\":{},\"queries\":{},\"placement\":{{",
                "\"rows_used\":{},\"row_groups\":{},\"col_chunks\":{},",
                "\"logical_tiles\":{},\"batches_per_subarray\":{},",
                "\"physical_subarrays\":{},\"banks\":{},\"padded_rows\":{}}}}}"
            ),
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
            p.padded_rows,
        ));
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

/// Parse a dataset task keyword (`hdc`/`knn`).
fn parse_task(s: &str) -> Result<DatasetTask, CliError> {
    match s {
        "hdc" => Ok(DatasetTask::Hdc),
        "knn" => Ok(DatasetTask::Knn),
        other => Err(cli_err(format!(
            "unknown dataset --workload '{other}' (expected hdc|knn)"
        ))),
    }
}

/// Load a dataset from disk and adapt it to a [`DatasetWorkload`].
fn load_dataset_workload(
    path: &str,
    format: Option<DatasetFormat>,
    task: &str,
    limit: Option<usize>,
) -> Result<DatasetWorkload, CliError> {
    let task = parse_task(task)?;
    let dataset = Dataset::load(std::path::Path::new(path), format).map_err(cli_err)?;
    DatasetWorkload::new(dataset, task, limit).map_err(cli_err)
}

/// Execute `run --dataset`: one experiment over the dataset workload.
pub fn run_dataset(args: &DatasetRunArgs) -> Result<String, CliError> {
    run_dataset_with_telemetry(args, &Telemetry::default())
}

fn run_dataset_with_telemetry(
    args: &DatasetRunArgs,
    telemetry: &Telemetry,
) -> Result<String, CliError> {
    let workload =
        load_dataset_workload(&args.dataset, args.dataset_format, &args.task, args.limit)?;
    let spec = match &args.arch {
        Some(path) => load_arch(path)?,
        None => ArchSpec::default(),
    };
    let outcome = Experiment::new(&workload)
        .arch(spec)
        .backend(args.engine.as_str())
        .threads(args.threads)
        .telemetry(telemetry.clone())
        .run()?;
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
        OutputFormat::Json => format!(
            concat!(
                "{{\"dataset\":\"{}\",\"task\":\"{}\",\"stored_rows\":{},",
                "\"dims\":{},\"queries\":{},\"accuracy\":{},\"stats\":{}}}"
            ),
            crate::accuracy::json_escape(workload.dataset().name()),
            workload.name(),
            workload.stored_rows(),
            workload.dims(),
            outcome.queries,
            accuracy,
            outcome.total.to_json()
        ),
    })
}

/// Execute `accuracy`: evaluate the dataset at each requested cell
/// width and render the CAM-vs-CPU report.
pub fn run_accuracy(args: &AccuracyArgs) -> Result<String, CliError> {
    run_accuracy_with_telemetry(args, &Telemetry::default())
}

fn run_accuracy_with_telemetry(
    args: &AccuracyArgs,
    telemetry: &Telemetry,
) -> Result<String, CliError> {
    let workload =
        load_dataset_workload(&args.dataset, args.dataset_format, &args.task, args.limit)?;
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
pub fn run_serve(args: &ServeArgs) -> Result<String, CliError> {
    run_serve_with_telemetry(args, &Telemetry::default())
}

fn run_serve_with_telemetry(args: &ServeArgs, telemetry: &Telemetry) -> Result<String, CliError> {
    let dataset =
        Dataset::load(std::path::Path::new(&args.dataset), args.dataset_format).map_err(cli_err)?;
    let defaults = PlanKey {
        task: args.task.clone(),
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
            max_linger: std::time::Duration::from_millis(args.linger_ms),
            queue_depth: args.queue_depth,
        },
        cache_capacity: args.cache_cap,
        telemetry: telemetry.clone(),
    };
    let report = c4cam_server::serve(&cfg, Arc::new(source), |bound| {
        use std::io::Write as _;
        println!("listening on {bound}");
        let _ = std::io::stdout().flush();
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
                task: args.task.clone(),
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
    let mode = match args.mode.as_str() {
        "open" => LoadMode::Open {
            rate: args.rate.expect("parser guarantees --rate with open"),
        },
        _ => LoadMode::Closed,
    };
    let cfg = LoadgenConfig {
        addr: args.addr.clone(),
        requests: args.requests,
        concurrency: args.concurrency,
        rows_per_request: args.rows_per_request,
        mode,
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

/// Build the workload a `sweep` invocation selects, applying the shape
/// overrides over the workload's paper defaults (dataset sweeps fix
/// the shape from the data).
pub fn build_sweep_workload(args: &SweepArgs) -> Result<Box<dyn Workload>, CliError> {
    if let Some(path) = &args.dataset {
        let w = load_dataset_workload(path, args.dataset_format, &args.workload, args.limit)?;
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
        other => Err(cli_err(format!(
            "unknown --workload '{other}' (expected hdc|knn|dtree|gpu)"
        ))),
    }
}

/// Execute `sweep`, returning the rendered report.
pub fn run_sweep(args: &SweepArgs) -> Result<String, CliError> {
    run_sweep_with_telemetry(args, &Telemetry::default())
}

fn run_sweep_with_telemetry(args: &SweepArgs, telemetry: &Telemetry) -> Result<String, CliError> {
    let workload = build_sweep_workload(args)?;
    let technologies: Result<Vec<(String, Option<TechnologyModel>)>, CliError> = args
        .techs
        .iter()
        .map(|name| Ok((name.clone(), parse_tech(name)?)))
        .collect();
    let plan = SweepPlan::new(workload.as_ref())
        .square_subarrays(args.subarrays.iter().copied())
        .optimizations(args.opts.iter().copied())
        .technologies(technologies?)
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

/// Dispatch a parsed command; returns the text to print. Commands that
/// execute (run/sweep/accuracy) record into a telemetry session
/// when `--trace-out`/`--metrics` ask for it; the trace file is
/// written and the metrics report appended before returning.
pub fn execute(command: &Command) -> Result<String, CliError> {
    let traced = |targs: &TelemetryArgs,
                  run: &dyn Fn(&Telemetry) -> Result<String, CliError>|
     -> Result<String, CliError> {
        let session = TelemetrySession::start(targs);
        let mut out = run(&session.telemetry)?;
        session.finish(&mut out)?;
        Ok(out)
    };
    match command {
        Command::Compile(args) => run_compile(args),
        Command::Run(args) => traced(&args.telemetry, &|t| {
            Ok(run_run_with_telemetry(args, t)?.render(args.format))
        }),
        Command::RunDataset(args) => {
            traced(&args.telemetry, &|t| run_dataset_with_telemetry(args, t))
        }
        Command::Place(args) => run_place(args),
        Command::Sweep(args) => traced(&args.telemetry, &|t| run_sweep_with_telemetry(args, t)),
        Command::Accuracy(args) => {
            traced(&args.telemetry, &|t| run_accuracy_with_telemetry(args, t))
        }
        Command::Serve(args) => traced(&args.telemetry, &|t| run_serve_with_telemetry(args, t)),
        Command::Loadgen(args) => run_loadgen(args),
        Command::BenchGate(args) => run_bench_gate(args).map_err(cli_err),
        Command::Help => Ok(usage()),
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
            "--canonicalize",
        ]))
        .unwrap();
        match cmd {
            Command::Compile(c) => {
                assert_eq!(c.arch, "spec.txt");
                assert_eq!(c.inputs, vec![vec![4, 64]]);
                assert_eq!(c.params, vec![("weight".to_string(), vec![8, 64])]);
                assert_eq!(c.emit, EmitStage::CimFused);
                assert!(c.canonicalize);
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
        ] {
            let args = CompileArgs {
                arch: spec.clone(),
                source: kernel.clone(),
                inputs: vec![vec![2, 64]],
                params: vec![("weight".to_string(), vec![4, 64])],
                emit,
                canonicalize: false,
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
                canonicalize: false,
            },
            data: vec![],
            random_seed: 7,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let report = run_run(&args).unwrap();
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
                canonicalize: false,
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
                canonicalize: false,
            },
            data: vec![],
            random_seed: 11,
            engine: engine.to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let walk = run_run(&mk("walk")).unwrap();
        for name in BackendRegistry::global().names() {
            let report = run_run(&mk(name)).unwrap();
            assert_eq!(walk.outputs, report.outputs, "{name}");
        }
        // Device-exact backends report identical statistics too.
        let tape = run_run(&mk("tape")).unwrap();
        let trace = run_run(&mk("trace")).unwrap();
        assert_eq!(walk.stats, tape.stats);
        assert_eq!(walk.stats, trace.stats);
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
                canonicalize: false,
            },
            data: vec![q, w],
            random_seed: 0,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let report = run_run(&args).unwrap();
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
                canonicalize: false,
            },
            data: vec![],
            random_seed: 11,
            engine: "tape".to_string(),
            threads,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        };
        let seq = run_run(&mk(1)).unwrap();
        let par = run_run(&mk(4)).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats.search_ops, par.stats.search_ops);
        assert!(
            (seq.stats.latency_ns - par.stats.latency_ns).abs()
                <= 1e-6 * seq.stats.latency_ns.max(1.0)
        );
    }

    #[test]
    fn sweep_args_parse_with_defaults() {
        let cmd = parse_args(&strings(&["sweep"])).unwrap();
        match cmd {
            Command::Sweep(s) => {
                assert_eq!(s.workload, "hdc");
                assert_eq!(s.subarrays, vec![16, 32, 64, 128, 256]);
                assert_eq!(s.opts.len(), 4);
                assert_eq!(s.techs, vec!["default".to_string()]);
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
        // Unknown workloads surface at execution time (workload
        // construction), with the keyword list in the message.
        let bad = SweepArgs {
            workload: "resnet".to_string(),
            ..SweepArgs::default()
        };
        let e = run_sweep(&bad).unwrap_err();
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
            "unknown --emit stage 'wasm' (expected torch|cim|cim-fused|partitioned|cam)"
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
                assert_eq!(a.task, "hdc");
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
                assert_eq!(a.task, "knn");
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
        // --random-seed/--emit/--canonicalize configure source
        // compilation and synthetic data; commands that cannot honor
        // them must reject instead of silently ignoring.
        assert!(parse_args(&strings(&["sweep", "--random-seed", "7"])).is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--emit", "cam"])).is_err());
        assert!(parse_args(&strings(&["accuracy", "--dataset", "d", "--canonicalize"])).is_err());
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
        // An unknown task surfaces at execution time with the keyword
        // list.
        let e = run_accuracy(&AccuracyArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: "dtree".to_string(),
            limit: Some(4),
            bits: vec![1],
            subarray: 32,
            engine: "tape".to_string(),
            threads: 1,
            fault_rates: vec![0.0],
            fault_seed: 0,
            spare_rows: 0,
            vote: 1,
            format: SweepFormat::Table,
            telemetry: TelemetryArgs::default(),
        })
        .unwrap_err();
        assert!(e.message.contains("expected hdc|knn"), "{e}");
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
                assert_eq!(r.task, "knn");
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
            task: "hdc".to_string(),
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
        let csv = run_accuracy(&args(SweepFormat::Csv)).unwrap();
        assert!(csv.starts_with(crate::accuracy::CSV_HEADER), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + 2 bit widths: {csv}");
        for line in csv.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields[0], "dataset-hdc");
            assert_eq!(fields[1], "mini-mnist");
            // cam_accuracy == cpu_accuracy and agreement == 1.
            assert_eq!(fields[9], fields[10], "{line}");
            assert_eq!(fields[11], "1", "{line}");
        }
        let table = run_accuracy(&args(SweepFormat::Table)).unwrap();
        assert!(table.contains("mini-mnist"), "{table}");
        let json = run_accuracy(&args(SweepFormat::Json)).unwrap();
        assert!(json.contains("\"agreement\":1"), "{json}");
        assert!(json.contains("\"query_phase\":{"), "{json}");
    }

    #[test]
    fn accuracy_is_bit_identical_across_engines_and_threads() {
        let mk = |engine: &str, threads| AccuracyArgs {
            dataset: fixture_path(),
            dataset_format: Some(DatasetFormat::Idx),
            task: "knn".to_string(),
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
        let walk = run_accuracy(&mk("walk", 1)).unwrap();
        let tape = run_accuracy(&mk("tape", 1)).unwrap();
        let sharded = run_accuracy(&mk("tape", 4)).unwrap();
        // The engine/threads columns differ by construction. The
        // accuracy columns must be bit-identical everywhere; the
        // stats columns are bit-identical between the sequential
        // engines, and equal to the documented merge tolerance when
        // the query loop is sharded (worker stats re-sum in shard
        // order).
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
        for (a, b) in cols(&tape, 12, 14)
            .iter()
            .flat_map(|r| r.split('|'))
            .zip(cols(&sharded, 12, 14).iter().flat_map(|r| r.split('|')))
        {
            let (a, b): (f64, f64) = (a.parse().unwrap(), b.parse().unwrap());
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn run_dataset_executes_the_fixture() {
        let text = run_dataset(&DatasetRunArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: "hdc".to_string(),
            limit: Some(8),
            arch: None,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs::default(),
        })
        .unwrap();
        assert!(text.contains("mini-mnist"), "{text}");
        assert!(text.contains("accuracy:"), "{text}");
        let json = run_dataset(&DatasetRunArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: "knn".to_string(),
            limit: Some(8),
            arch: None,
            engine: "tape".to_string(),
            threads: 2,
            format: OutputFormat::Json,
            telemetry: TelemetryArgs::default(),
        })
        .unwrap();
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
        let out = run_sweep(&SweepArgs {
            workload: "hdc".to_string(),
            dataset: Some(fixture_path()),
            dataset_format: None,
            limit: Some(4),
            subarrays: vec![32],
            opts: vec![Optimization::Base],
            bits: vec![1],
            format: SweepFormat::Csv,
            ..SweepArgs::default()
        })
        .unwrap();
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
            assert!(e.message.contains("tape, trace, walk"), "{e}");
        }
        // `simd` is a retired name: it fails like any unknown one, never aliases.
        let e = parse_args(&strings(&["run", "--dataset", "d", "--engine", "simd"])).unwrap_err();
        let want = "unknown engine 'simd' (registered backends: tape, trace, walk)";
        assert!(e.message.contains(want), "{e}");
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
            "t.jsonl",
        ]))
        .unwrap()
        {
            Command::Accuracy(a) => {
                assert_eq!(a.telemetry.trace_out.as_deref(), Some("t.jsonl"));
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
            task: "hdc".to_string(),
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
    fn jsonl_trace_extension_selects_json_lines() {
        let dir = std::env::temp_dir().join("c4cam-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run-trace.jsonl");
        let cmd = Command::RunDataset(DatasetRunArgs {
            dataset: fixture_path(),
            dataset_format: None,
            task: "hdc".to_string(),
            limit: Some(4),
            arch: None,
            engine: "tape".to_string(),
            threads: 1,
            format: OutputFormat::Text,
            telemetry: TelemetryArgs {
                trace_out: Some(trace.to_string_lossy().into_owned()),
                metrics: MetricsMode::None,
                log_level: None,
            },
        });
        execute(&cmd).unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"type\":\""), "{first}");
        assert!(text.lines().any(|l| l.contains("\"name\":\"Execute\"")));
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
                canonicalize: false,
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
            task: "hdc".to_string(),
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
        let csv = run_accuracy(&args(vec![0.0, 0.02])).unwrap();
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
        assert_eq!(csv, run_accuracy(&args(vec![0.0, 0.02])).unwrap());
        // Agreement stays exact on the fault-free rows.
        assert_eq!(fields[0][11], "1", "{csv}");
    }

    #[test]
    fn single_threaded_engines_reject_threads_by_capability() {
        for engine in ["walk", "trace"] {
            let e = parse_args(&strings(&[
                "run",
                "--arch",
                "a",
                "--source",
                "s",
                "--engine",
                engine,
                "--threads",
                "2",
            ]))
            .unwrap_err();
            assert!(
                e.message
                    .contains(&format!("{engine} backend is single-threaded")),
                "{e}"
            );
        }
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
                assert_eq!(a.task, "hdc");
                assert_eq!(a.bits, 2);
                assert_eq!(a.subarray, 32);
                assert_eq!(a.engine, "tape");
                assert_eq!(a.host, "127.0.0.1");
                assert_eq!(a.port, 0);
                assert_eq!(a.max_batch, 16);
                assert_eq!(a.linger_ms, 2);
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
            "--linger-ms",
            "5",
            "--queue-depth",
            "32",
            "--cache-cap",
            "2",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(a) => {
                assert_eq!(a.task, "knn");
                assert_eq!(a.bits, 1);
                assert_eq!(a.subarray, 64);
                assert_eq!(a.engine, "tape");
                assert_eq!(a.threads, 4);
                assert_eq!(a.port, 9000);
                assert_eq!(a.max_batch, 8);
                assert_eq!(a.linger_ms, 5);
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
                assert_eq!(a.mode, "closed");
                assert_eq!(a.rate, None);
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
                assert_eq!(a.mode, "open");
                assert_eq!(a.rate, Some(50.0));
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
}
