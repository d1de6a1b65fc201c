//! Design-space exploration on top of the [`Experiment`] builder
//! (paper §IV-C): a [`SweepPlan`] expands a grid over subarray geometry
//! × [`Optimization`] configuration × CAM technology × bits-per-cell
//! × execution backend, runs every grid point through the same
//! compiled pipeline, and reports the results as a table, CSV, or
//! JSON — optionally filtered to the latency/energy/area Pareto
//! frontier.
//!
//! ```no_run
//! use c4cam::sweep::SweepPlan;
//! use c4cam::workloads::HdcWorkload;
//!
//! let hdc = HdcWorkload::paper(16);
//! let outcome = SweepPlan::new(&hdc).run().unwrap();
//! println!("{}", outcome.to_table(false));
//! ```
//!
//! The `c4cam sweep` subcommand and the `design_space_exploration`
//! example are both thin wrappers over this module.

use crate::driver::{CompiledExperiment, DriverError, Experiment, Front, Fused, RunOutcome};
use c4cam_arch::tech::TechnologyModel;
use c4cam_arch::{ArchSpec, Optimization};
use c4cam_core::passes::cam_map::{map_key, MapKey};
use c4cam_hal::{FaultConfig, SharedPlan};
use c4cam_telemetry::json::{self, Field};
use c4cam_telemetry::{cat, Telemetry};
use c4cam_workloads::{ArgOrder, Workload, WorkloadInputs};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// One coordinate of the sweep grid: everything that varies between
/// grid points. The technology is carried by value (`None` = the
/// spec's default model) so a [`GridPoint`] fully determines its run.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Subarray geometry `(rows, cols)`.
    pub subarray: (usize, usize),
    /// Mapping optimization configuration.
    pub optimization: Optimization,
    /// Technology name (`"default"` when [`GridPoint::tech`] is
    /// `None`).
    pub tech_name: String,
    /// Explicit technology model, if any.
    pub tech: Option<TechnologyModel>,
    /// Bits per cell (1 = TCAM, >1 = MCAM).
    pub bits_per_cell: u32,
    /// Execution backend name (resolved through
    /// [`c4cam_hal::BackendRegistry`] when the point runs).
    pub engine: String,
    /// Seeded device fault rate for this point (0 = no injection;
    /// see [`FaultConfig::with_rate`]).
    pub fault_rate: f64,
    /// Fault-stream seed shared by every faulty point of the sweep.
    pub fault_seed: u64,
}

impl GridPoint {
    /// Build the architecture for this grid point (the CAM kind
    /// follows the cell width, as in [`crate::driver::paper_arch`]).
    fn spec(&self, hierarchy: (usize, usize, usize)) -> Result<ArchSpec, DriverError> {
        crate::driver::build_arch(
            self.subarray,
            hierarchy,
            self.optimization,
            self.bits_per_cell,
        )
        .map_err(|e| DriverError::Config(format!("grid point [{self}]: {e}")))
    }
}

impl fmt::Display for GridPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}/{}/{}/{}b/{}",
            self.subarray.0,
            self.subarray.1,
            self.optimization.keyword(),
            self.tech_name,
            self.bits_per_cell,
            self.engine
        )?;
        // Fault-free points keep the historical coordinate format.
        if self.fault_rate > 0.0 {
            write!(f, "/f{}", json::num_f64(self.fault_rate))?;
        }
        Ok(())
    }
}

/// A grid point together with its simulated outcome.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The configuration that was run.
    pub grid: GridPoint,
    /// The full experiment outcome (placement, stats, predictions).
    pub outcome: RunOutcome,
}

impl SweepPoint {
    /// Query-phase latency per query, ns.
    pub fn latency_per_query_ns(&self) -> f64 {
        self.outcome.latency_per_query_ns()
    }

    /// Query-phase energy per query, pJ.
    pub fn energy_per_query_pj(&self) -> f64 {
        self.outcome.energy_per_query_pj()
    }

    /// Query-phase power, mW.
    pub fn power_mw(&self) -> f64 {
        self.outcome.query_phase.power_mw()
    }

    /// Provisioned CAM area in cells (physical subarrays × rows ×
    /// cols) — the area proxy of the Pareto filter. A calibrated
    /// µm²-per-cell model would only rescale this per technology.
    pub fn area_cells(&self) -> u64 {
        (self.outcome.placement.physical_subarrays * self.grid.subarray.0 * self.grid.subarray.1)
            as u64
    }

    /// The `(latency, energy, area)` objective vector the Pareto
    /// filter minimizes.
    pub fn objectives(&self) -> [f64; 3] {
        [
            self.latency_per_query_ns(),
            self.energy_per_query_pj(),
            self.area_cells() as f64,
        ]
    }
}

/// Indices of the Pareto-optimal points of `objectives` (all axes
/// minimized): a point survives unless some other point is no worse on
/// every axis and strictly better on at least one. Duplicate objective
/// vectors all survive. Indices come back in input order.
pub fn pareto_indices(objectives: &[[f64; 3]]) -> Vec<usize> {
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    (0..objectives.len())
        .filter(|&i| {
            !objectives
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && dominates(o, &objectives[i]))
        })
        .collect()
}

/// Results of a sweep: every grid point's outcome plus the computed
/// Pareto frontier.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Workload name the sweep ran on.
    pub workload: String,
    /// One entry per grid point, in grid expansion order.
    pub points: Vec<SweepPoint>,
    /// Indices into [`SweepOutcome::points`] on the
    /// latency/energy/area Pareto frontier, ascending.
    pub pareto: Vec<usize>,
}

impl SweepOutcome {
    /// Whether point `i` is on the Pareto frontier.
    pub fn is_pareto(&self, i: usize) -> bool {
        self.pareto.binary_search(&i).is_ok()
    }

    /// The Pareto-optimal points, in grid order.
    pub fn pareto_points(&self) -> Vec<&SweepPoint> {
        self.pareto.iter().map(|&i| &self.points[i]).collect()
    }

    fn selected(&self, pareto_only: bool) -> Vec<usize> {
        if pareto_only {
            self.pareto.clone()
        } else {
            (0..self.points.len()).collect()
        }
    }

    /// Render as an aligned text table (`pareto_only` keeps frontier
    /// points only; otherwise frontier membership is flagged).
    pub fn to_table(&self, pareto_only: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>9} {:<14} {:<12} {:>4} {:<6} {:>10} {:>6} {:>13} {:>12} {:>11} {:>12} {:>7} {:>7}\n",
            "workload",
            "subarray",
            "optimization",
            "technology",
            "bits",
            "engine",
            "subarrays",
            "banks",
            "lat/query ns",
            "E/query pJ",
            "power mW",
            "area cells",
            "fault",
            "pareto"
        ));
        for i in self.selected(pareto_only) {
            let p = &self.points[i];
            out.push_str(&format!(
                "{:<10} {:>9} {:<14} {:<12} {:>4} {:<6} {:>10} {:>6} {:>13.2} {:>12.2} {:>11.3} {:>12} {:>7.3} {:>7}\n",
                self.workload,
                format!("{}x{}", p.grid.subarray.0, p.grid.subarray.1),
                p.grid.optimization.keyword(),
                p.grid.tech_name,
                p.grid.bits_per_cell,
                p.grid.engine,
                p.outcome.placement.physical_subarrays,
                p.outcome.placement.banks,
                p.latency_per_query_ns(),
                p.energy_per_query_pj(),
                p.power_mw(),
                p.area_cells(),
                p.grid.fault_rate,
                if self.is_pareto(i) { "*" } else { "" }
            ));
        }
        out
    }

    /// Render as CSV (stable header, the names of `COLUMNS`; one row
    /// per selected point).
    pub fn to_csv(&self, pareto_only: bool) -> String {
        let mut out = json::csv_line(COLUMNS.map(|(name, _)| Field::Str(name)));
        for i in self.selected(pareto_only) {
            out.push_str(&json::csv_line(COLUMNS.map(|(_, value)| value(self, i))));
        }
        out
    }

    /// Render as a JSON object: each point carries its `COLUMNS`
    /// after `workload` (which the document states once) and embeds
    /// its query phase as [`c4cam_camsim::ExecStats::to_json`].
    pub fn to_json(&self, pareto_only: bool) -> String {
        json::object(|doc| {
            doc.put("workload", &self.workload)
                .array("points", |points| {
                    for i in self.selected(pareto_only) {
                        points.object(|o| {
                            for (name, value) in &COLUMNS[1..] {
                                o.put(name, value(self, i));
                            }
                            o.raw("query_phase", &self.points[i].outcome.query_phase.to_json());
                        });
                    }
                });
        })
    }
}

/// One report column: its name and its value at point `i`.
type Column = (&'static str, fn(&SweepOutcome, usize) -> Field<'_>);

/// The CSV/JSON report's columns, each listed once.
const COLUMNS: [Column; 16] = [
    ("workload", |s, _| Field::Str(&s.workload)),
    ("subarray_rows", |s, i| {
        Field::U64(s.points[i].grid.subarray.0 as u64)
    }),
    ("subarray_cols", |s, i| {
        Field::U64(s.points[i].grid.subarray.1 as u64)
    }),
    ("optimization", |s, i| {
        Field::Str(s.points[i].grid.optimization.keyword())
    }),
    ("technology", |s, i| Field::Str(&s.points[i].grid.tech_name)),
    ("bits_per_cell", |s, i| {
        Field::U64(s.points[i].grid.bits_per_cell.into())
    }),
    ("engine", |s, i| Field::Str(&s.points[i].grid.engine)),
    ("physical_subarrays", |s, i| {
        Field::U64(s.points[i].outcome.placement.physical_subarrays as u64)
    }),
    ("banks", |s, i| {
        Field::U64(s.points[i].outcome.placement.banks as u64)
    }),
    ("latency_per_query_ns", |s, i| {
        Field::F64(s.points[i].latency_per_query_ns())
    }),
    ("energy_per_query_pj", |s, i| {
        Field::F64(s.points[i].energy_per_query_pj())
    }),
    ("power_mw", |s, i| Field::F64(s.points[i].power_mw())),
    ("area_cells", |s, i| Field::U64(s.points[i].area_cells())),
    ("accuracy", |s, i| {
        Field::F64(s.points[i].outcome.accuracy())
    }),
    ("pareto", |s, i| Field::Bool(s.is_pareto(i))),
    ("fault_rate", |s, i| Field::F64(s.points[i].grid.fault_rate)),
];

/// Default square subarray sizes of the §IV-C grid (shared by
/// [`SweepPlan::new`] and the `c4cam sweep` CLI defaults).
pub const DEFAULT_SUBARRAY_SIZES: [usize; 5] = [16, 32, 64, 128, 256];

/// Default optimization configurations of the §IV-C grid.
pub const DEFAULT_OPTIMIZATIONS: [Optimization; 4] = [
    Optimization::Base,
    Optimization::Power,
    Optimization::Density,
    Optimization::PowerDensity,
];

/// A design-space sweep over one workload: the grid dimensions with
/// the §IV-C defaults (square subarrays 16..256, all four optimization
/// configurations, the spec-default technology, 1 bit per cell, the
/// `tape` backend, the paper hierarchy 4 mats × 4 arrays × 8
/// subarrays).
#[derive(Clone)]
pub struct SweepPlan<'w> {
    workload: &'w dyn Workload,
    hierarchy: (usize, usize, usize),
    subarrays: Vec<(usize, usize)>,
    optimizations: Vec<Optimization>,
    technologies: Vec<(String, Option<TechnologyModel>)>,
    bits: Vec<u32>,
    backends: Vec<String>,
    fault_rates: Vec<f64>,
    fault_seed: u64,
    threads: usize,
    telemetry: Telemetry,
}

impl fmt::Debug for SweepPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepPlan")
            .field("workload", &self.workload.name())
            .field("hierarchy", &self.hierarchy)
            .field("subarrays", &self.subarrays)
            .field("optimizations", &self.optimizations)
            .field(
                "technologies",
                &self
                    .technologies
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("bits", &self.bits)
            .field("backends", &self.backends)
            .field("fault_rates", &self.fault_rates)
            .field("fault_seed", &self.fault_seed)
            .field("threads", &self.threads)
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl<'w> SweepPlan<'w> {
    /// A sweep of `workload` over the paper's §IV-C default grid.
    pub fn new(workload: &'w dyn Workload) -> SweepPlan<'w> {
        SweepPlan {
            workload,
            hierarchy: (4, 4, 8),
            subarrays: DEFAULT_SUBARRAY_SIZES.map(|n| (n, n)).to_vec(),
            optimizations: DEFAULT_OPTIMIZATIONS.to_vec(),
            technologies: vec![("default".to_string(), None)],
            bits: vec![1],
            backends: vec!["tape".to_string()],
            fault_rates: vec![0.0],
            fault_seed: 0,
            threads: 1,
            telemetry: Telemetry::default(),
        }
    }

    /// Replace the subarray geometries (`(rows, cols)` pairs).
    pub fn subarrays(mut self, subarrays: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.subarrays = subarrays.into_iter().collect();
        self
    }

    /// Replace the subarray geometries with `n × n` squares.
    pub fn square_subarrays(self, sizes: impl IntoIterator<Item = usize>) -> Self {
        let squares: Vec<(usize, usize)> = sizes.into_iter().map(|n| (n, n)).collect();
        self.subarrays(squares)
    }

    /// Replace the optimization configurations.
    pub fn optimizations(mut self, opts: impl IntoIterator<Item = Optimization>) -> Self {
        self.optimizations = opts.into_iter().collect();
        self
    }

    /// Replace the technologies; `None` selects the spec's default
    /// model.
    pub fn technologies(
        mut self,
        techs: impl IntoIterator<Item = (String, Option<TechnologyModel>)>,
    ) -> Self {
        self.technologies = techs.into_iter().collect();
        self
    }

    /// Replace the bits-per-cell values (1 maps to TCAM, >1 to MCAM).
    pub fn bits(mut self, bits: impl IntoIterator<Item = u32>) -> Self {
        self.bits = bits.into_iter().collect();
        self
    }

    /// Override the hierarchy fan-outs (mats/bank, arrays/mat,
    /// subarrays/array).
    pub fn hierarchy(mut self, mats: usize, arrays: usize, subarrays: usize) -> Self {
        self.hierarchy = (mats, arrays, subarrays);
        self
    }

    /// Replace the execution backends (a sweep axis: every grid point
    /// runs once per backend name). Names are resolved through
    /// [`c4cam_hal::BackendRegistry`] when the sweep runs.
    pub fn backends(mut self, backends: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.backends = backends.into_iter().map(Into::into).collect();
        self
    }

    /// Replace the fault-rate axis (default `[0.0]` — no injection).
    /// Every grid point runs once per rate; rate 0 points are
    /// bit-identical to a fault-free sweep.
    pub fn fault_rates(mut self, rates: impl IntoIterator<Item = f64>) -> Self {
        self.fault_rates = rates.into_iter().collect();
        self
    }

    /// Seed for the fault-site hash streams of every faulty grid
    /// point (default 0).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Worker threads for every grid point.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a telemetry handle: every grid point records a
    /// [`c4cam_telemetry::cat::GRID`] span (named by the point's
    /// `Display` coordinates) wrapping its full experiment, whose
    /// phase and per-op child spans nest inside.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Expand the grid in deterministic order (optimization outermost,
    /// then subarray, technology, bits, backend, fault rate — the
    /// §IV-C table order with the fault axis innermost).
    ///
    /// # Errors
    /// [`DriverError::Config`] if any grid dimension is empty.
    pub fn grid(&self) -> Result<Vec<GridPoint>, DriverError> {
        for (name, len) in [
            ("subarray geometries", self.subarrays.len()),
            ("optimizations", self.optimizations.len()),
            ("technologies", self.technologies.len()),
            ("bits-per-cell values", self.bits.len()),
            ("backends", self.backends.len()),
            ("fault rates", self.fault_rates.len()),
        ] {
            if len == 0 {
                return Err(DriverError::Config(format!(
                    "empty sweep grid: no {name} configured"
                )));
            }
        }
        let mut grid = Vec::with_capacity(
            self.subarrays.len()
                * self.optimizations.len()
                * self.technologies.len()
                * self.bits.len()
                * self.backends.len()
                * self.fault_rates.len(),
        );
        for &optimization in &self.optimizations {
            for &subarray in &self.subarrays {
                for (tech_name, tech) in &self.technologies {
                    for &bits_per_cell in &self.bits {
                        for engine in &self.backends {
                            for &fault_rate in &self.fault_rates {
                                grid.push(GridPoint {
                                    subarray,
                                    optimization,
                                    tech_name: tech_name.clone(),
                                    tech: tech.clone(),
                                    bits_per_cell,
                                    engine: engine.clone(),
                                    fault_rate,
                                    fault_seed: self.fault_seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(grid)
    }

    /// Compile every grid point through the [`Experiment`] builder,
    /// cost it, and compute the Pareto frontier.
    ///
    /// The workload's module and inputs depend on the architecture
    /// through `bits_per_cell` only ([`Workload::build_module`],
    /// [`Workload::inputs`]), and so does the pipeline's prefix up to
    /// the `cim-fused` seam. So all three run once per cell width, in
    /// one `prefix` span (category `phase`); each point compiles from a
    /// clone of the fused module.
    ///
    /// What the rest of the pipeline reads of a spec is its
    /// [`MapKey`]: `cam-map` reads nothing else, and the backend's plan
    /// reads only the mapped module. So a plan is compiled once per
    /// engine, map key and fused module (widths whose fused modules
    /// print the same share), and every later point with the same
    /// three takes it [retargeted](c4cam_hal::Plan::retarget) to its
    /// own spec; its `Compile` span says `plan: shared`. A plan is
    /// released after the last point of its key. A point whose key
    /// cannot be computed (its placement fails) compiles on its own and
    /// fails as an individual run does.
    ///
    /// Cost is a function of the schedule, so a fault-free point whose
    /// plan can be priced ([`crate::driver::CompiledExperiment::cost`]) reports the
    /// statistics its tape prices to — the sequential fold, whatever
    /// [`SweepPlan::threads`] says — and is not executed. Its answers
    /// depend on the workload and the cell width only (the device's
    /// reductions are exact-integer sums, equal under any tiling), so
    /// after the grid the device runs once per `bits_per_cell`, on the
    /// priced point whose run searches least (fewest `search_ops`; ties
    /// to fewer provisioned cells, [`SweepPoint::area_cells`], then to
    /// fewer physical subarrays, then to grid order): a run's host time
    /// goes mostly to its searches and then to provisioning its cells,
    /// and the cheapest run gives the same answers as the costliest.
    /// The answers are the device's, not the golden model's: a `dot`
    /// kernel ranks by symbol matches on the device, which can order
    /// rows differently from the dot product. The run is skipped when a
    /// fault-free point that had to execute anyway (a `walk` point)
    /// already answered. Faulty points, backends with no static schedule
    /// and unpriceable plans execute in place.
    ///
    /// # Errors
    /// [`DriverError::Config`] for empty grids or invalid thread
    /// counts; any grid point's failure is reported with the point and
    /// the failing stage, with the cause chain preserved.
    pub fn run(&self) -> Result<SweepOutcome, DriverError> {
        if self.threads == 0 {
            return Err(DriverError::Config(
                "threads must be >= 1 (got 0)".to_string(),
            ));
        }
        let grid = self.grid()?;
        let experiments: Vec<_> = grid.iter().map(|gp| self.experiment(gp)).collect();
        let keys: Vec<Option<PlanKey>> = grid
            .iter()
            .zip(&experiments)
            .map(|(gp, experiment)| {
                let experiment = experiment.as_ref().ok()?;
                let spec = experiment.effective_spec().ok()?;
                let key = map_key(&spec, &experiment.problem()).ok()?;
                Some((gp.engine.clone(), key))
            })
            .collect();
        let mut plans = SharedPlans::for_uses(keys.iter().flatten());
        let mut by_width: BTreeMap<u32, Width> = BTreeMap::new();
        let mut points: Vec<SweepPoint> = Vec::with_capacity(grid.len());
        for ((gp, experiment), key) in grid.into_iter().zip(experiments).zip(keys) {
            let experiment = experiment?;
            let span = self.telemetry.span(format!("{gp}"), cat::GRID);
            let width = by_width.entry(gp.bits_per_cell).or_default();
            let (outcome, priced) = self
                .run_point(&experiment, gp.fault_rate > 0.0, width, key, &mut plans)
                .map_err(|e| e.at_grid_point(&gp))?;
            span.finish();
            let point = SweepPoint { grid: gp, outcome };
            if let Some(compiled) = priced {
                width.wait(points.len(), &point, compiled);
            }
            points.push(point);
        }
        for width in by_width.into_values() {
            let Some((_, donor, compiled)) = width.donor else {
                continue;
            };
            let predictions = match width.predictions {
                Some(predictions) => predictions,
                None => {
                    let grid = &points[donor].grid;
                    let ran = compiled.run_at(grid).map_err(|e| e.at_grid_point(grid))?;
                    ran.predictions
                }
            };
            for i in width.waiting {
                points[i].outcome.predictions = predictions.clone();
            }
        }
        let objectives: Vec<[f64; 3]> = points.iter().map(SweepPoint::objectives).collect();
        let pareto = pareto_indices(&objectives);
        Ok(SweepOutcome {
            workload: self.workload.name().to_string(),
            points,
            pareto,
        })
    }

    /// The experiment of grid point `gp`.
    fn experiment(&self, gp: &GridPoint) -> Result<Experiment<'w>, DriverError> {
        let mut experiment = Experiment::new(self.workload)
            .arch(gp.spec(self.hierarchy)?)
            .backend(gp.engine.clone())
            .threads(self.threads)
            .telemetry(self.telemetry.clone());
        if let Some(tech) = &gp.tech {
            experiment = experiment.tech(tech.clone());
        }
        if gp.fault_rate > 0.0 {
            experiment = experiment.faults(FaultConfig::with_rate(gp.fault_rate, gp.fault_seed));
        }
        Ok(experiment)
    }

    /// One grid point: compile from its width's fused module, or take
    /// the plan of an earlier point with the same `key`; price if it
    /// can be, execute if it must. A priced point comes back with no
    /// predictions and with its plan, for the width's execution.
    fn run_point(
        &self,
        experiment: &Experiment<'_>,
        faulty: bool,
        width: &mut Width,
        key: Option<PlanKey>,
        plans: &mut SharedPlans,
    ) -> Result<(RunOutcome, Option<CompiledExperiment>), DriverError> {
        // The fused module this point compiles a plan from, if it may
        // share that plan.
        let mut compiled_from = None;
        let compiled = experiment.compile_from(|spec| {
            let (fused, inputs, module) = match &width.shared {
                Some(shared) => shared,
                None => {
                    let _span = self.telemetry.span("prefix", cat::PHASE);
                    let fused = Fused::lower(self.workload.build_module(spec), spec)?;
                    let inputs = Arc::new(self.workload.inputs(spec));
                    let module = fused
                        .maps_only(&experiment.problem())
                        .then(|| plans.module_index(fused.identity()));
                    width.shared.insert((fused, inputs, module))
                }
            };
            let held = key.as_ref().zip(*module);
            let front = match held.and_then(|(key, module)| plans.get(key, module)) {
                Some(plan) => Front::Planned(Arc::from(plan.retarget(spec)), fused.arg_order()),
                None => {
                    compiled_from = *module;
                    Front::Fused(fused.clone())
                }
            };
            Ok((front, Arc::clone(inputs)))
        })?;
        if let Some(key) = &key {
            plans.used(key, compiled_from.map(|module| (module, compiled.plan())));
        }
        if !faulty {
            let _span = self.telemetry.span("price", cat::PHASE);
            if let Ok(cost) = compiled.cost(compiled.query_count()) {
                return Ok((compiled.outcome_at(&cost, Vec::new()), Some(compiled)));
            }
        }
        let ran = compiled.run()?;
        if !faulty && width.predictions.is_none() {
            width.predictions = Some(ran.predictions.clone());
        }
        Ok((ran, None))
    }
}

/// A point's engine and the [`MapKey`] of its spec: with the fused
/// module, all its plan depends on.
type PlanKey = (String, MapKey);

/// Plans compiled by earlier grid points for later ones.
struct SharedPlans {
    /// Per key: the uses still to come, and the plans compiled under
    /// it, by the index of the fused module they were lowered from.
    held: HashMap<PlanKey, (usize, Vec<(usize, SharedPlan)>)>,
    /// The distinct fused-module identities seen
    /// ([`Fused::identity`]).
    modules: Vec<(String, &'static str, ArgOrder)>,
}

impl SharedPlans {
    /// A store expecting one use per key in `keys`.
    fn for_uses<'k>(keys: impl Iterator<Item = &'k PlanKey>) -> SharedPlans {
        let mut held: HashMap<PlanKey, (usize, Vec<(usize, SharedPlan)>)> = HashMap::new();
        for key in keys {
            held.entry(key.clone()).or_default().0 += 1;
        }
        SharedPlans {
            held,
            modules: Vec::new(),
        }
    }

    /// The index of the fused module `identity`, registered if new.
    fn module_index(&mut self, identity: (String, &'static str, ArgOrder)) -> usize {
        match self.modules.iter().position(|m| *m == identity) {
            Some(i) => i,
            None => {
                self.modules.push(identity);
                self.modules.len() - 1
            }
        }
    }

    /// The plan held for `key` and fused module `module`.
    fn get(&self, key: &PlanKey, module: usize) -> Option<&SharedPlan> {
        let (_, plans) = self.held.get(key)?;
        plans
            .iter()
            .find(|(m, _)| *m == module)
            .map(|(_, plan)| plan)
    }

    /// Count one use of `key`, keeping `compiled` — the plan a point
    /// compiled from fused module `.0` — for later uses. After the
    /// key's last use, every plan under it is released.
    fn used(&mut self, key: &PlanKey, compiled: Option<(usize, &SharedPlan)>) {
        let Some((left, plans)) = self.held.get_mut(key) else {
            return;
        };
        *left -= 1;
        if *left == 0 {
            self.held.remove(key);
        } else if let Some((module, plan)) = compiled {
            plans.push((module, Arc::clone(plan)));
        }
    }
}

/// What the grid points of one cell width share.
#[derive(Default)]
struct Width {
    /// The workload's module lowered to the `cim-fused` seam, and its
    /// inputs: `bits_per_cell` is the only field of the architecture
    /// [`Workload::build_module`] and [`Workload::inputs`] may read.
    /// With them, the fused module's index in [`SharedPlans`] when
    /// its plans may be shared: when `cam-map` places nothing but the
    /// workload's own problem in it.
    shared: Option<(Fused, Arc<WorkloadInputs>, Option<usize>)>,
    /// The answers of the first fault-free point that executed.
    predictions: Option<Vec<usize>>,
    /// Priced points waiting for answers, by index.
    waiting: Vec<usize>,
    /// The waiting point with the fewest `(searches, cells, physical
    /// subarrays)`, earliest first, and its plan: the one that executes.
    donor: Option<((u64, u64, usize), usize, CompiledExperiment)>,
}

impl Width {
    /// Queue priced point `index` for answers; it becomes the donor if
    /// its run is cheaper than the current donor's.
    fn wait(&mut self, index: usize, point: &SweepPoint, compiled: CompiledExperiment) {
        self.waiting.push(index);
        let size = (
            point.outcome.total.search_ops,
            point.area_cells(),
            point.outcome.placement.physical_subarrays,
        );
        if self.donor.as_ref().is_none_or(|(best, ..)| size < *best) {
            self.donor = Some((size, index, compiled));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_workloads::HdcWorkload;

    fn tiny_hdc() -> HdcWorkload {
        HdcWorkload {
            classes: 4,
            dims: 64,
            queries: 4,
            flip_rate: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn grid_expansion_is_the_full_cross_product_in_order() {
        let w = tiny_hdc();
        let plan = SweepPlan::new(&w)
            .square_subarrays([16, 32])
            .optimizations([Optimization::Base, Optimization::Power])
            .bits([1, 2]);
        let grid = plan.grid().unwrap();
        // 2 opts × 2 subarrays × 1 tech × 2 bit widths × 1 backend.
        assert_eq!(grid.len(), 8);
        // Optimization outermost, then subarray, tech, bits, backend.
        assert_eq!(grid[0].subarray, (16, 16));
        assert_eq!(grid[0].optimization, Optimization::Base);
        assert_eq!(grid[0].bits_per_cell, 1);
        assert_eq!(grid[1].bits_per_cell, 2);
        assert_eq!(grid[2].subarray, (32, 32));
        assert_eq!(grid[4].optimization, Optimization::Power);
        assert_eq!(grid[0].engine, "tape");
        assert_eq!(grid[0].to_string(), "16x16/latency/default/1b/tape");
    }

    #[test]
    fn backend_axis_expands_innermost() {
        let w = tiny_hdc();
        let grid = SweepPlan::new(&w)
            .square_subarrays([16])
            .optimizations([Optimization::Base])
            .bits([1, 2])
            .backends(["tape", "walk"])
            .grid()
            .unwrap();
        // 1 opt × 1 subarray × 1 tech × 2 bits × 2 backends.
        assert_eq!(grid.len(), 4);
        let coords: Vec<(u32, &str)> = grid
            .iter()
            .map(|g| (g.bits_per_cell, g.engine.as_str()))
            .collect();
        assert_eq!(
            coords,
            vec![(1, "tape"), (1, "walk"), (2, "tape"), (2, "walk")]
        );
    }

    #[test]
    fn table_output_carries_the_engine_column() {
        let w = tiny_hdc();
        let outcome = SweepPlan::new(&w)
            .square_subarrays([16])
            .optimizations([Optimization::Base])
            .backends(["walk"])
            .run()
            .unwrap();
        let table = outcome.to_table(false);
        let header = table.lines().next().unwrap();
        assert!(header.contains("engine"), "{header}");
        assert!(table.lines().nth(1).unwrap().contains("walk"), "{table}");
    }

    #[test]
    fn empty_grid_dimensions_fail_up_front() {
        let w = tiny_hdc();
        let e = SweepPlan::new(&w)
            .square_subarrays(std::iter::empty())
            .grid()
            .unwrap_err();
        assert!(matches!(e, DriverError::Config(_)), "{e}");
        assert!(e.to_string().contains("empty sweep grid"), "{e}");
        let e = SweepPlan::new(&w)
            .bits(std::iter::empty())
            .run()
            .unwrap_err();
        assert!(e.to_string().contains("no bits-per-cell"), "{e}");
        let e = SweepPlan::new(&w).threads(0).run().unwrap_err();
        assert!(matches!(e, DriverError::Config(_)), "{e}");
    }

    #[test]
    fn pareto_filter_on_a_fixed_3_point_frontier() {
        // p0 and p2 trade latency against energy (both optimal);
        // p1 is dominated by p0 on every axis.
        let objectives = [
            [1.0, 5.0, 10.0], // p0: fastest
            [2.0, 6.0, 10.0], // p1: strictly worse than p0
            [3.0, 1.0, 10.0], // p2: most energy-efficient
        ];
        assert_eq!(pareto_indices(&objectives), vec![0, 2]);
        // Ties on every axis: both survive.
        assert_eq!(
            pareto_indices(&[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
            vec![0, 1]
        );
        // A single point is trivially optimal; empty input is empty.
        assert_eq!(pareto_indices(&[[4.0, 4.0, 4.0]]), vec![0]);
        assert_eq!(pareto_indices(&[]), Vec::<usize>::new());
    }

    #[test]
    fn sweep_runs_and_flags_the_frontier() {
        let w = tiny_hdc();
        let outcome = SweepPlan::new(&w)
            .square_subarrays([16, 32])
            .optimizations([Optimization::Base, Optimization::Power])
            .hierarchy(2, 2, 4)
            .run()
            .unwrap();
        assert_eq!(outcome.points.len(), 4);
        assert!(!outcome.pareto.is_empty(), "frontier cannot be empty");
        // cam-power at the same geometry is strictly slower at equal
        // area, so the base point dominates it unless energy differs in
        // power's favor — either way the frontier is a strict subset
        // here (power trades latency for nothing at this tiny scale).
        assert!(outcome.pareto.len() <= outcome.points.len());
        for &i in &outcome.pareto {
            assert!(outcome.is_pareto(i));
        }
        // Renderers agree on the row count.
        let csv = outcome.to_csv(false);
        assert_eq!(csv.lines().count(), 1 + 4, "{csv}");
        assert!(csv.starts_with("workload,subarray_rows"), "{csv}");
        let csv_pareto = outcome.to_csv(true);
        assert_eq!(csv_pareto.lines().count(), 1 + outcome.pareto.len());
        let json = outcome.to_json(false);
        assert!(json.starts_with("{\"workload\":\"hdc\""), "{json}");
        assert!(json.contains("\"query_phase\":{"), "{json}");
        let table = outcome.to_table(false);
        assert_eq!(table.lines().count(), 1 + 4);
        assert!(table.contains("16x16"), "{table}");
    }

    #[test]
    fn backend_axis_runs_every_backend_and_agrees_on_predictions() {
        let w = tiny_hdc();
        let outcome = SweepPlan::new(&w)
            .square_subarrays([32])
            .optimizations([Optimization::Base])
            .hierarchy(2, 2, 4)
            .backends(["tape", "walk"])
            .run()
            .unwrap();
        assert_eq!(outcome.points.len(), 2);
        let engines: Vec<&str> = outcome
            .points
            .iter()
            .map(|p| p.grid.engine.as_str())
            .collect();
        assert_eq!(engines, vec!["tape", "walk"]);
        // Same workload, same geometry: every backend predicts the
        // same classes (the HAL's bit-identical output contract).
        for p in &outcome.points[1..] {
            assert_eq!(p.outcome.predictions, outcome.points[0].outcome.predictions);
        }
        // The engine column flows through every renderer.
        let csv = outcome.to_csv(false);
        assert!(csv.contains("bits_per_cell,engine,"), "{csv}");
        assert!(csv.contains(",1,walk,"), "{csv}");
        assert!(outcome.to_json(false).contains("\"engine\":\"walk\""));
        assert!(outcome.to_table(false).contains("walk"));
        // An unknown backend fails at its grid point with the
        // registry's name list.
        let e = SweepPlan::new(&w)
            .square_subarrays([32])
            .optimizations([Optimization::Base])
            .backends(["jit"])
            .run()
            .unwrap_err();
        assert!(e.to_string().contains("unknown engine 'jit'"), "{e}");
    }

    #[test]
    fn dataset_workloads_flow_through_the_sweep_grid() {
        // Real data through the unchanged grid: the per-point outcome
        // must equal an individually built Experiment at that point,
        // including re-quantization when the bits dimension changes.
        use c4cam_datasets::{mini_mnist, DatasetTask, DatasetWorkload};
        let w = DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Hdc, Some(6)).unwrap();
        let outcome = SweepPlan::new(&w)
            .square_subarrays([32])
            .optimizations([Optimization::Base])
            .bits([1, 2])
            .run()
            .unwrap();
        assert_eq!(outcome.points.len(), 2);
        assert_eq!(outcome.workload, "dataset-hdc");
        for p in &outcome.points {
            let spec = crate::driver::build_arch(
                p.grid.subarray,
                (4, 4, 8),
                p.grid.optimization,
                p.grid.bits_per_cell,
            )
            .unwrap();
            let direct = Experiment::new(&w).arch(spec).run().unwrap();
            assert_eq!(p.outcome.predictions, direct.predictions);
            assert_eq!(p.outcome.total, direct.total);
        }
        // The two bit widths genuinely quantize differently.
        let csv = outcome.to_csv(false);
        assert!(csv.contains("dataset-hdc,32,32"), "{csv}");
    }

    #[test]
    fn fault_axis_expands_innermost_and_registers_faults() {
        let w = tiny_hdc();
        let plan = SweepPlan::new(&w)
            .square_subarrays([32])
            .optimizations([Optimization::Base])
            .hierarchy(2, 2, 4)
            .fault_rates([0.0, 0.05])
            .fault_seed(9);
        let grid = plan.grid().unwrap();
        assert_eq!(grid.len(), 2);
        // Rate-0 points keep the historical coordinate label; faulty
        // points append the rate.
        assert_eq!(grid[0].to_string(), "32x32/latency/default/1b/tape");
        assert_eq!(grid[1].to_string(), "32x32/latency/default/1b/tape/f0.05");
        let outcome = plan.run().unwrap();
        // The rate-0 point is bit-identical to a fault-free sweep of
        // the same grid.
        let clean = SweepPlan::new(&w)
            .square_subarrays([32])
            .optimizations([Optimization::Base])
            .hierarchy(2, 2, 4)
            .run()
            .unwrap();
        assert_eq!(
            outcome.points[0].outcome.predictions,
            clean.points[0].outcome.predictions
        );
        assert_eq!(
            outcome.points[0].outcome.total,
            clean.points[0].outcome.total
        );
        // The faulty point materialized seeded fault sites.
        assert!(outcome.points[1].outcome.total.fault_cells > 0);
        // The fault rate flows through every renderer, appended last
        // in the CSV so positional consumers keep working.
        let csv = outcome.to_csv(false);
        assert!(csv.lines().next().unwrap().ends_with(",pareto,fault_rate"));
        assert!(csv.lines().nth(2).unwrap().ends_with(",0.05"), "{csv}");
        assert!(outcome.to_json(false).contains("\"fault_rate\":0.05"));
        assert!(outcome.to_table(false).contains("0.050"));
        // An empty fault axis fails up front like every other axis.
        let e = SweepPlan::new(&w)
            .fault_rates(std::iter::empty())
            .grid()
            .unwrap_err();
        assert!(e.to_string().contains("no fault rates"), "{e}");
    }

    #[test]
    fn sweep_point_failure_names_the_grid_point_and_stage() {
        // An out-of-range cell width fails spec validation at that
        // grid point; the error names the point.
        let w = tiny_hdc();
        let e = SweepPlan::new(&w)
            .square_subarrays([16])
            .optimizations([Optimization::Base])
            .bits([5])
            .run()
            .unwrap_err();
        assert_eq!(e.stage(), "config");
        assert!(
            e.to_string()
                .contains("grid point [16x16/latency/default/5b/tape]"),
            "{e}"
        );
        // A zero-query workload fails inside the experiment and comes
        // back tagged with the grid point it died at.
        let empty = HdcWorkload {
            queries: 0,
            ..tiny_hdc()
        };
        let e = SweepPlan::new(&empty)
            .square_subarrays([16])
            .optimizations([Optimization::Base])
            .run()
            .unwrap_err();
        assert!(e.to_string().contains("grid point ["), "{e}");
        assert!(e.to_string().contains("has no queries"), "{e}");
    }
}
