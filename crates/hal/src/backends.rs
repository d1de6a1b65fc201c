//! The two standard backends: `walk`, `tape`.

use c4cam_arch::tech::TechnologyModel;
use c4cam_arch::ArchSpec;
use c4cam_camsim::{CamMachine, Floorplan};
use c4cam_engine::{Schedule, Tape};
use c4cam_ir::Module;
use c4cam_runtime::{Executor, Value};
use c4cam_telemetry::{cat, ArgValue, Telemetry};
use c4cam_tensor::Tensor;
use std::sync::{Arc, Mutex, PoisonError};

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
    module: Arc<Module>,
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
            module: Arc::new(module.clone()),
            func: func.to_string(),
            spec: spec.clone(),
        }))
    }
}

impl Plan for WalkPlan {
    fn retarget(&self, spec: &ArchSpec) -> Box<dyn Plan> {
        Box::new(WalkPlan {
            module: Arc::clone(&self.module),
            func: self.func.clone(),
            spec: spec.clone(),
        })
    }

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
    compiled: Arc<Compiled>,
    spec: ArchSpec,
    /// The last price [`TapePlan::priced`] worked out. A resident plan
    /// runs one batch shape over and over, and pricing a small batch
    /// costs about a tenth of running it.
    last_price: Mutex<Option<PriceMemo>>,
}

/// A price and what it depends on besides the plan itself.
struct PriceMemo {
    shapes: Vec<Vec<usize>>,
    tech: TechnologyModel,
    priced: Option<Priced>,
}

/// A compiled tape and the last schedule walked from it: what every
/// plan [retargeted](Plan::retarget) from one compile shares, so the
/// points of a sweep that share a plan share one walk.
struct Compiled {
    tape: Tape,
    schedule: Mutex<Option<ScheduleMemo>>,
}

/// A walk of the tape and what it depends on besides the query count:
/// the argument shapes and the floorplan.
struct ScheduleMemo {
    shapes: Vec<Vec<usize>>,
    floorplan: Floorplan,
    schedule: Arc<Schedule>,
}

impl Compiled {
    /// The price of a run of `queries` query-loop trips (`None`: as the
    /// tape spells) on `spec` and `tech`: a charge of the memoised
    /// schedule when it answers, else of a new walk (a `schedule` span),
    /// which replaces it.
    fn price(
        &self,
        shapes: &[&[usize]],
        spec: &ArchSpec,
        tech: &TechnologyModel,
        queries: Option<usize>,
        telemetry: &Telemetry,
    ) -> Result<Priced, Unpriced> {
        let floorplan = Floorplan::of(spec);
        // The lock guards a clone or a store, neither of which leaves
        // the memo half-written.
        let memo = || self.schedule.lock().unwrap_or_else(PoisonError::into_inner);
        let held = memo().as_ref().and_then(|m| {
            let same = m.floorplan == floorplan
                && m.shapes
                    .iter()
                    .map(Vec::as_slice)
                    .eq(shapes.iter().copied());
            let trips = m.schedule.trips(queries).filter(|_| same)?;
            Some((Arc::clone(&m.schedule), trips))
        });
        let (schedule, trips) = match held {
            Some(held) => held,
            None => {
                let schedule = {
                    let _span = telemetry.span("schedule", cat::STAGE);
                    Arc::new(self.tape.schedule(shapes, spec, queries)?)
                };
                *memo() = Some(ScheduleMemo {
                    shapes: shapes.iter().map(|s| s.to_vec()).collect(),
                    floorplan,
                    schedule: Arc::clone(&schedule),
                });
                let trips = schedule.trips(queries);
                (schedule, trips.expect("a schedule answers its own walk"))
            }
        };
        schedule.charge(spec, tech, trips)
    }
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
            compiled: Arc::new(Compiled {
                tape: Tape::compile(module, func)?,
                schedule: Mutex::new(None),
            }),
            spec: spec.clone(),
            last_price: Mutex::new(None),
        }))
    }
}

impl TapePlan {
    /// The cost of running `args` as the tape spells it, when the
    /// schedule fixes it: no fault model (fault sites and transient hits
    /// are device state) and no telemetry (its per-op spans read the
    /// device's running totals).
    fn priced(&self, args: &[Value], opts: &ExecOptions) -> Option<Priced> {
        if opts.faults.is_some() || opts.telemetry.enabled() {
            return None;
        }
        let shapes = args
            .iter()
            .map(|a| a.as_tensor().map(Tensor::shape))
            .collect::<Option<Vec<_>>>()?;
        let tech = tech_for(opts);
        // A memo's lock guards a clone or a store, neither of which
        // leaves it half-written.
        let memo = || {
            self.last_price
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        if let Some(last) = memo().as_ref() {
            if last.tech == tech
                && last
                    .shapes
                    .iter()
                    .map(Vec::as_slice)
                    .eq(shapes.iter().copied())
            {
                return last.priced.clone();
            }
        }
        let priced = self
            .compiled
            .price(&shapes, &self.spec, &tech, None, &opts.telemetry)
            .ok();
        *memo() = Some(PriceMemo {
            shapes: shapes.iter().map(|s| s.to_vec()).collect(),
            tech,
            priced: priced.clone(),
        });
        priced
    }
}

impl Plan for TapePlan {
    /// The tape and its schedule memo are shared (a schedule depends on
    /// the spec's floorplan only); the price memo starts empty.
    fn retarget(&self, spec: &ArchSpec) -> Box<dyn Plan> {
        Box::new(TapePlan {
            compiled: Arc::clone(&self.compiled),
            spec: spec.clone(),
            last_price: Mutex::new(None),
        })
    }

    /// A run whose cost the schedule fixes ([`TapePlan::priced`]) runs
    /// on a [`CamMachine::functional`] device and reports the priced
    /// statistics, at any thread count; any other run charges the
    /// device as it goes.
    fn execute(&self, args: &[Value], opts: &ExecOptions) -> Result<Execution, HalError> {
        let mut span = opts.telemetry.span("backend:tape", cat::BACKEND);
        span.arg("threads", ArgValue::Int(opts.threads.max(1) as i64));
        let priced = self.priced(args, opts);
        let mut machine = match priced {
            Some(_) => {
                let mut functional = CamMachine::functional(&self.spec);
                functional.set_wta_window(opts.wta_window);
                functional
            }
            None => machine_for(&self.spec, opts),
        };
        let outputs = self.compiled.tape.run_batched(
            &mut machine,
            args,
            opts.threads.max(1),
            &opts.telemetry,
        )?;
        span.finish();
        let (stats, phases) = match priced {
            Some(p) => (p.total, p.phases),
            None => (machine.stats(), machine.phases().to_vec()),
        };
        Ok(Execution {
            outputs,
            stats,
            phases,
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
        self.compiled.price(
            arg_shapes,
            &self.spec,
            &tech_for(opts),
            Some(queries),
            &opts.telemetry,
        )
    }
}
