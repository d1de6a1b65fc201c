//! The two standard backends: `walk`, `tape`.

use c4cam_arch::tech::TechnologyModel;
use c4cam_arch::ArchSpec;
use c4cam_camsim::CamMachine;
use c4cam_engine::Tape;
use c4cam_ir::Module;
use c4cam_runtime::{Executor, Value};
use c4cam_telemetry::{cat, ArgValue};

use crate::{Backend, ExecOptions, Execution, HalError, Plan, Priced, Unpriced};

/// The technology the execution options charge.
fn tech_for(opts: &ExecOptions) -> TechnologyModel {
    opts.tech.clone().unwrap_or_default()
}

/// Build a [`CamMachine`] per the execution options.
fn machine_for(spec: &ArchSpec, opts: &ExecOptions) -> CamMachine {
    let mut machine = CamMachine::with_tech(spec, tech_for(opts));
    machine.set_wta_window(opts.wta_window);
    machine.set_faults(opts.faults.clone());
    machine
}

/// Reject a thread request a backend cannot honor.
fn reject_threads(name: &str, opts: &ExecOptions) -> Result<(), HalError> {
    if opts.threads > 1 {
        return Err(HalError::new(format!(
            "backend '{name}' does not support threaded execution \
             (requested {} threads)",
            opts.threads
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// walk
// ---------------------------------------------------------------------

/// The IR-walking interpreter — the single-threaded output/stats
/// oracle every other backend is measured against.
pub struct WalkBackend;

struct WalkPlan {
    module: Module,
    func: String,
    spec: ArchSpec,
}

impl Backend for WalkBackend {
    fn name(&self) -> &'static str {
        "walk"
    }

    fn description(&self) -> &'static str {
        "IR-walking interpreter (single-threaded oracle, device-exact stats)"
    }

    fn supports_threads(&self) -> bool {
        false
    }

    fn compile(
        &self,
        module: &Module,
        func: &str,
        spec: &ArchSpec,
    ) -> Result<Box<dyn Plan>, HalError> {
        Ok(Box::new(WalkPlan {
            module: module.clone(),
            func: func.to_string(),
            spec: spec.clone(),
        }))
    }
}

impl Plan for WalkPlan {
    fn execute(&self, args: &[Value], opts: &ExecOptions) -> Result<Execution, HalError> {
        reject_threads("walk", opts)?;
        // The tree-walking interpreter has no per-op hook surface; the
        // backend span plus the machine's final stats are its telemetry.
        let span = opts.telemetry.span("backend:walk", cat::BACKEND);
        let mut machine = machine_for(&self.spec, opts);
        let outputs = Executor::with_machine(&self.module, &mut machine)
            .run(&self.func, args)
            .map_err(|e| HalError::new(e.to_string()))?;
        span.finish();
        Ok(Execution {
            outputs,
            stats: machine.stats(),
            phases: machine.phases().to_vec(),
            heap_bytes: machine.heap_bytes(),
        })
    }
}

// ---------------------------------------------------------------------
// tape
// ---------------------------------------------------------------------

/// The flat CAM-ISA tape engine; threads shard its query loop.
pub struct TapeBackend;

struct TapePlan {
    tape: Tape,
    spec: ArchSpec,
}

impl Backend for TapeBackend {
    fn name(&self) -> &'static str {
        "tape"
    }

    fn description(&self) -> &'static str {
        "flat CAM-ISA tape engine (threaded sharding, device-exact stats)"
    }

    fn supports_threads(&self) -> bool {
        true
    }

    fn compile(
        &self,
        module: &Module,
        func: &str,
        spec: &ArchSpec,
    ) -> Result<Box<dyn Plan>, HalError> {
        Ok(Box::new(TapePlan {
            tape: Tape::compile(module, func)?,
            spec: spec.clone(),
        }))
    }
}

impl Plan for TapePlan {
    fn execute(&self, args: &[Value], opts: &ExecOptions) -> Result<Execution, HalError> {
        let mut span = opts.telemetry.span("backend:tape", cat::BACKEND);
        span.arg("threads", ArgValue::Int(opts.threads.max(1) as i64));
        let mut machine = machine_for(&self.spec, opts);
        let outputs = self.tape.run_batched_resilient(
            &mut machine,
            args,
            opts.threads.max(1),
            &opts.telemetry,
            &opts.retry,
            opts.chaos,
        )?;
        span.finish();
        Ok(Execution {
            outputs,
            stats: machine.stats(),
            phases: machine.phases().to_vec(),
            heap_bytes: machine.heap_bytes(),
        })
    }

    fn price(
        &self,
        arg_shapes: &[&[usize]],
        opts: &ExecOptions,
        queries: usize,
    ) -> Result<Priced, Unpriced> {
        if opts.faults.is_some() {
            return Err(Unpriced::Faults);
        }
        self.tape
            .price(arg_shapes, &self.spec, &tech_for(opts), queries)
    }
}
