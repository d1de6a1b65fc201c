//! Backend hardware-abstraction layer (HAL) for c4cam execution.
//!
//! Every way of *running* a compiled (placed + lowered) module sits
//! behind the same two-step contract:
//!
//! 1. [`Backend::compile`] turns a placed [`Module`] function into an
//!    opaque, reusable [`Plan`];
//! 2. [`Plan::execute`] runs the plan against concrete inputs and
//!    returns an [`Execution`]: outputs, cumulative [`ExecStats`],
//!    and phase snapshots.
//!
//! A plan whose backend keeps a static schedule can also
//! [`Plan::price`] it: the statistics of an execution, from argument
//! shapes alone.
//!
//! A backend says whether it shards across worker threads through
//! [`Backend::supports_threads`]. Every backend reports the calibrated
//! [`CamMachine`](c4cam_camsim::CamMachine) cost model, so all are
//! bit-identical to the walker oracle in outputs **and** statistics.
//! The `tape` backend takes a fault-free, untraced execution's
//! statistics from its schedule ([`Plan::price`]) and runs it on a
//! functional machine that charges nothing; a run with faults or live
//! telemetry charges the machine as it goes.
//!
//! The standard registry ([`BackendRegistry::standard`]) ships two
//! backends:
//!
//! | name    | executes via                              |
//! |---------|-------------------------------------------|
//! | `walk`  | IR-walking interpreter (the oracle)       |
//! | `tape`  | flat CAM-ISA tape engine (sharding)       |
//!
//! Adding a backend means implementing the two traits and registering
//! a boxed instance; the cross-backend conformance suite picks it up
//! automatically through [`BackendRegistry::all`].

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use c4cam_arch::tech::TechnologyModel;
use c4cam_arch::ArchSpec;
use c4cam_camsim::ExecStats;
use c4cam_ir::Module;
use c4cam_runtime::Value;
use c4cam_telemetry::Telemetry;

mod backends;
mod registry;

pub use backends::{TapeBackend, WalkBackend};
pub use c4cam_engine::{Priced, Unpriced};
pub use c4cam_faults::{FaultConfig, FaultModel, Resilience};
pub use registry::BackendRegistry;

/// HAL-level failure: compilation of a plan, execution, or a request a
/// backend cannot honor (e.g. threads on a single-threaded backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalError {
    /// Description of the failure.
    pub message: String,
}

impl HalError {
    /// Build an error from any displayable message.
    pub fn new(message: impl Into<String>) -> HalError {
        HalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for HalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend error: {}", self.message)
    }
}

impl Error for HalError {}

impl From<c4cam_engine::EngineError> for HalError {
    fn from(e: c4cam_engine::EngineError) -> HalError {
        HalError::new(e.to_string())
    }
}

/// Knobs applied at execution time (not baked into the [`Plan`]).
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads for query-loop sharding; `0` or `1` runs
    /// sequentially. Backends without thread support reject `> 1`.
    pub threads: usize,
    /// Winner-take-all sensing window (Hamming distances saturate at
    /// this mismatch count).
    pub wta_window: Option<u32>,
    /// Technology model override; `None` charges the machine's default
    /// model.
    pub tech: Option<TechnologyModel>,
    /// Telemetry handle: while enabled, backends record a `backend:*`
    /// span around plan execution plus sampled per-op and per-shard
    /// child spans. The disabled default costs one branch.
    pub telemetry: Telemetry,
    /// Seeded device-fault injection (stuck-at cells, sensing drift,
    /// transient mismatches) plus resilience knobs. `None` (the
    /// default) runs the ideal device, bit-identical to today's
    /// behavior.
    pub faults: Option<FaultConfig>,
}

impl ExecOptions {
    /// Sequential execution with default technology and no WTA window.
    pub fn sequential() -> ExecOptions {
        ExecOptions::default()
    }

    /// Set the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ExecOptions {
        self.threads = threads;
        self
    }

    /// Set the winner-take-all sensing window.
    #[must_use]
    pub fn with_wta_window(mut self, window: Option<u32>) -> ExecOptions {
        self.wta_window = window;
        self
    }

    /// Set the technology model.
    #[must_use]
    pub fn with_tech(mut self, tech: TechnologyModel) -> ExecOptions {
        self.tech = Some(tech);
        self
    }

    /// Attach a telemetry handle.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ExecOptions {
        self.telemetry = telemetry;
        self
    }

    /// Enable seeded device-fault injection.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> ExecOptions {
        self.faults = Some(faults);
        self
    }
}

/// Everything one execution produced.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The function's return values.
    pub outputs: Vec<Value>,
    /// Cumulative statistics at function return.
    pub stats: ExecStats,
    /// Named mid-execution snapshots (`cam.phase_marker`), e.g.
    /// `"setup-complete"` separating programming from querying.
    pub phases: Vec<(String, ExecStats)>,
    /// Bytes of heap the device owned for its programmed contents at
    /// function return (`CamMachine::heap_bytes`): a count that repeats
    /// exactly, surfaced as the `sim.heap_bytes` telemetry counter.
    pub heap_bytes: usize,
}

impl Execution {
    /// The stats snapshot recorded under `name`, if any.
    pub fn phase(&self, name: &str) -> Option<&ExecStats> {
        self.phases
            .iter()
            .find_map(|(n, s)| if n == name { Some(s) } else { None })
    }
}

/// One way of executing compiled modules (see the crate docs).
///
/// Implementations are stateless handles: per-run state lives in the
/// [`Plan`]s they produce and the machines those plans build
/// internally, so one registered backend instance serves any number of
/// concurrent compilations.
pub trait Backend: Send + Sync {
    /// Stable registry key (`walk`, `tape`, ...).
    fn name(&self) -> &'static str;

    /// One-line human description for CLI help and docs.
    fn description(&self) -> &'static str;

    /// Whether [`ExecOptions::threads`] `> 1` shards execution across
    /// worker threads. Declared up front so drivers can reject an
    /// impossible request with a configuration error instead of a
    /// mid-execution surprise.
    fn supports_threads(&self) -> bool;

    /// Lower `func` of the placed `module` into an executable plan for
    /// an accelerator described by `spec`.
    ///
    /// # Errors
    /// Fails when the module cannot be lowered to this backend's
    /// execution form (e.g. the function is missing or uses
    /// constructs outside the flat-tape surface).
    fn compile(
        &self,
        module: &Module,
        func: &str,
        spec: &ArchSpec,
    ) -> Result<Box<dyn Plan>, HalError>;

    /// Like [`Backend::compile`], but returns the plan behind an
    /// [`Arc`] so long-lived services can cache one compiled artifact
    /// and execute it from any number of threads without recompiling.
    ///
    /// # Errors
    /// Same failure modes as [`Backend::compile`].
    fn compile_shared(
        &self,
        module: &Module,
        func: &str,
        spec: &ArchSpec,
    ) -> Result<SharedPlan, HalError> {
        self.compile(module, func, spec).map(Arc::from)
    }
}

/// A compiled plan shared across threads (e.g. by a resident server's
/// plan cache): cloning the handle is cheap and every clone executes
/// the same immutable artifact.
pub type SharedPlan = Arc<dyn Plan>;

/// An executable artifact produced by [`Backend::compile`], reusable
/// across calls with different inputs and [`ExecOptions`].
///
/// Plans are immutable after compilation and `Send + Sync`: per-run
/// state (the simulated machine, slot frames) is built inside
/// [`Plan::execute`], so one plan may execute concurrently from many
/// threads — each execution is independent and deterministic.
pub trait Plan: Send + Sync {
    /// Run the plan against `args`.
    ///
    /// # Errors
    /// Fails on runtime errors (bad argument shapes, device budget
    /// exhaustion) or options the backend cannot honor.
    fn execute(&self, args: &[Value], opts: &ExecOptions) -> Result<Execution, HalError>;

    /// The same schedule, run on a machine of `spec`: what
    /// [`Backend::compile`] would return for `spec` from a module that
    /// lowers for it exactly as it did for this plan's spec. The
    /// compiled artifact is shared, not rebuilt.
    fn retarget(&self, spec: &ArchSpec) -> Box<dyn Plan>;

    /// The statistics and phase snapshots [`Plan::execute`] would
    /// report for arguments of `arg_shapes` with the query loop run
    /// `queries` times, computed from the plan's schedule without
    /// executing it — bit-identical to a sequential execution. The
    /// default is a backend with no static schedule to price.
    ///
    /// # Errors
    /// Why the plan cannot be priced under `opts`; execute it instead.
    fn price(
        &self,
        _arg_shapes: &[&[usize]],
        _opts: &ExecOptions,
        _queries: usize,
    ) -> Result<Priced, Unpriced> {
        Err(Unpriced::NoSchedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_arch::Optimization;
    use c4cam_core::dialects::{cim, torch};
    use c4cam_core::pipeline::C4camPipeline;
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
            let (x, y) = (x.snapshot_tensor().unwrap(), y.snapshot_tensor().unwrap());
            assert_eq!(x.shape(), y.shape(), "{what}: result {i} shape");
            let same = x
                .data()
                .iter()
                .zip(y.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{what}: result {i} diverged");
        }
    }

    #[test]
    fn every_registered_backend_matches_the_walk_oracle() {
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 3, 5, 200, 1, true);
        let (stored, queries) = hdc_inputs(3, 5, 200);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let s = spec(16, Optimization::Power);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();

        let reg = BackendRegistry::global();
        let oracle = reg
            .get("walk")
            .unwrap()
            .compile(&compiled.module, "forward", &s)
            .unwrap()
            .execute(&args, &ExecOptions::sequential())
            .unwrap();

        for backend in reg.all() {
            let run = backend
                .compile(&compiled.module, "forward", &s)
                .unwrap()
                .execute(&args, &ExecOptions::sequential())
                .unwrap();
            assert_outputs_equal(&run.outputs, &oracle.outputs, backend.name());
            assert_eq!(run.stats, oracle.stats, "{} stats", backend.name());
            assert_eq!(run.phases, oracle.phases, "{} phases", backend.name());
        }
    }

    #[test]
    fn threaded_execution_respects_capabilities() {
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
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();

        let reg = BackendRegistry::global();
        let oracle = reg
            .get("walk")
            .unwrap()
            .compile(&compiled.module, "knn", &s)
            .unwrap()
            .execute(&args, &ExecOptions::sequential())
            .unwrap();

        let threaded = ExecOptions::sequential().with_threads(4);
        for backend in reg.all() {
            let plan = backend.compile(&compiled.module, "knn", &s).unwrap();
            if backend.supports_threads() {
                let run = plan.execute(&args, &threaded).unwrap();
                assert_outputs_equal(&run.outputs, &oracle.outputs, backend.name());
                // A fault-free run reports its schedule's cost: the
                // sequential figures, whatever the thread count.
                assert_eq!(run.stats, oracle.stats, "{}", backend.name());
                assert_eq!(run.phases, oracle.phases, "{}", backend.name());
            } else {
                let err = plan.execute(&args, &threaded).unwrap_err();
                assert!(
                    err.message.contains(backend.name()),
                    "{}: {err}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn unknown_backend_error_lists_the_registered_names() {
        let err = BackendRegistry::global()
            .get("jit")
            .err()
            .expect("unknown name must fail");
        for name in ["walk", "tape"] {
            assert!(err.message.contains(name), "{err}");
        }
    }

    #[test]
    fn exec_options_builders_compose() {
        let opts = ExecOptions::sequential();
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.wta_window, None);
        assert!(opts.tech.is_none());

        let opts = ExecOptions::sequential()
            .with_threads(4)
            .with_wta_window(Some(7))
            .with_tech(TechnologyModel::default())
            .with_faults(FaultConfig::with_rate(0.01, 7));
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.wta_window, Some(7));
        assert!(opts.tech.is_some());
        assert!(opts.faults.is_some());
    }

    #[test]
    fn execution_phase_lookup_finds_named_snapshots() {
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 2, 4, 64, 1, true);
        let (stored, queries) = hdc_inputs(2, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        let run = BackendRegistry::global()
            .get("tape")
            .unwrap()
            .compile(&compiled.module, "forward", &s)
            .unwrap()
            .execute(&args, &ExecOptions::sequential())
            .unwrap();
        let setup = run.phase("setup-complete").expect("setup phase marker");
        assert!(setup.latency_ns <= run.stats.latency_ns);
        assert!(run.phase("no-such-phase").is_none());
    }

    #[test]
    fn plans_are_reusable_and_deterministic_across_executions() {
        // A compiled plan is stateless: executing it twice must give
        // byte-identical outputs and statistics.
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 2, 4, 64, 1, true);
        let (stored, queries) = hdc_inputs(2, 4, 64);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        for backend in BackendRegistry::global().all() {
            let plan = backend.compile(&compiled.module, "forward", &s).unwrap();
            let a = plan.execute(&args, &ExecOptions::sequential()).unwrap();
            let b = plan.execute(&args, &ExecOptions::sequential()).unwrap();
            assert_outputs_equal(&a.outputs, &b.outputs, backend.name());
            assert_eq!(a.stats, b.stats, "{} rerun stats", backend.name());
        }
    }

    /// The tape plan keeps its last price: alternating technologies and
    /// argument shapes on one plan must still report each run's own
    /// statistics — the walker's.
    #[test]
    fn a_plan_reports_each_runs_own_price_whatever_ran_before() {
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 2, 4, 64, 1, true);
        let s = spec(16, Optimization::Base);
        let module = C4camPipeline::new(s.clone()).compile(m).unwrap().module;
        let reg = BackendRegistry::global();
        let plan = |name| reg.get(name).unwrap().compile(&module, "forward", &s);
        let (tape, walk) = (plan("tape").unwrap(), plan("walk").unwrap());
        let (stored, queries) = hdc_inputs(2, 4, 64);
        let short = queries.slice2d(0, 0, 1, 64).unwrap();
        let runs = [
            (TechnologyModel::fefet_45nm(), &queries),
            (TechnologyModel::cmos_tcam_16nm(), &queries),
            (TechnologyModel::cmos_tcam_16nm(), &short),
            (TechnologyModel::fefet_45nm(), &queries),
        ];
        for (tech, queries) in runs {
            let args = [
                Value::Tensor(queries.clone()),
                Value::Tensor(stored.clone()),
            ];
            let opts = ExecOptions::sequential().with_tech(tech);
            let want = walk.execute(&args, &opts).unwrap();
            let got = tape.execute(&args, &opts).unwrap();
            assert_eq!(got.stats, want.stats, "{:?}", queries.shape());
            assert_eq!(got.phases, want.phases);
        }
    }

    /// A plan retargeted to a spec its module maps identically for runs
    /// and prices as a plan compiled for that spec: same outputs, same
    /// statistics, and not the statistics of the spec it came from.
    #[test]
    fn a_retargeted_plan_runs_as_one_compiled_for_its_spec() {
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 3, 5, 200, 1, true);
        let from = spec(16, Optimization::Base);
        let to = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .cam_kind(c4cam_arch::CamKind::Mcam)
            .bits_per_cell(2)
            .build()
            .unwrap();
        let lower = |s: &ArchSpec| C4camPipeline::new(s.clone()).compile(m.clone()).unwrap();
        let (module, again) = (lower(&from).module, lower(&to).module);
        assert_eq!(
            c4cam_ir::print::print_module(&module),
            c4cam_ir::print::print_module(&again)
        );
        let (stored, queries) = hdc_inputs(3, 5, 200);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let shapes: [&[usize]; 2] = [&[3, 200], &[5, 200]];
        let opts = ExecOptions::sequential().with_tech(TechnologyModel::cmos_tcam_16nm());
        for backend in BackendRegistry::global().all() {
            let original = backend.compile(&module, "forward", &from).unwrap();
            let retargeted = original.retarget(&to);
            let direct = backend.compile(&again, "forward", &to).unwrap();
            let (got, want) = (
                retargeted.execute(&args, &opts).unwrap(),
                direct.execute(&args, &opts).unwrap(),
            );
            assert_outputs_equal(&got.outputs, &want.outputs, backend.name());
            assert_eq!(got.stats, want.stats, "{}", backend.name());
            assert_eq!(got.phases, want.phases, "{}", backend.name());
            let old = original.execute(&args, &opts).unwrap();
            assert_ne!(old.stats, want.stats, "{}", backend.name());
            assert_eq!(
                retargeted.price(&shapes, &opts, 3).ok().map(|p| p.total),
                direct.price(&shapes, &opts, 3).ok().map(|p| p.total),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn shared_plans_execute_concurrently_and_bit_identically() {
        // One `Arc<dyn Plan>` executed from two threads at once must
        // give byte-identical outputs and statistics on both, and must
        // match a sequential execution of the same plan — the contract
        // the resident server's plan cache depends on.
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, 3, 5, 128, 1, true);
        let (stored, queries) = hdc_inputs(3, 5, 128);
        let s = spec(16, Optimization::Base);
        let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
        for backend in BackendRegistry::global().all() {
            let plan: SharedPlan = backend
                .compile_shared(&compiled.module, "forward", &s)
                .unwrap();
            // `Value` is not `Send` (buffers are `Rc`-backed), so each
            // thread builds its own argument list from cloned tensors.
            let reference = plan
                .execute(
                    &[
                        Value::Tensor(queries.clone()),
                        Value::Tensor(stored.clone()),
                    ],
                    &ExecOptions::sequential(),
                )
                .unwrap();
            // `Execution` is not `Send` either (outputs hold `Value`s),
            // so each thread snapshots its outputs to plain tensors
            // before handing them back.
            let runs: Vec<(Vec<Tensor>, ExecStats)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let plan = Arc::clone(&plan);
                        let (stored, queries) = (stored.clone(), queries.clone());
                        scope.spawn(move || {
                            let args = [Value::Tensor(queries), Value::Tensor(stored)];
                            let run = plan.execute(&args, &ExecOptions::sequential()).unwrap();
                            let outputs: Vec<Tensor> = run
                                .outputs
                                .iter()
                                .map(|v| v.snapshot_tensor().unwrap())
                                .collect();
                            (outputs, run.stats)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let expected: Vec<Tensor> = reference
                .outputs
                .iter()
                .map(|v| v.snapshot_tensor().unwrap())
                .collect();
            for (outputs, stats) in &runs {
                assert_eq!(outputs.len(), expected.len(), "{} arity", backend.name());
                for (i, (got, want)) in outputs.iter().zip(&expected).enumerate() {
                    assert_eq!(got.shape(), want.shape(), "{} result {i}", backend.name());
                    let same = got
                        .data()
                        .iter()
                        .zip(want.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "{}: result {i} diverged", backend.name());
                }
                assert_eq!(*stats, reference.stats, "{} shared stats", backend.name());
            }
        }
    }
}
