//! Integration tests of the `SweepPlan` design-space runner and the
//! `c4cam sweep` subcommand: grid points must reproduce individual
//! [`Experiment`] runs exactly, and the CLI's JSON/CSV reports must
//! parse and carry the same numbers.

mod common;

use c4cam::cli::{execute, parse_args, Command};
use c4cam::compiler::mapping::MappingProblem;
use c4cam::compiler::passes::cam_map::{map_key, MapKey};
use c4cam::driver::Experiment;
use c4cam::hal::FaultConfig;
use c4cam::ir::builder::OpBuilder;
use c4cam::ir::print::print_module;
use c4cam::sweep::{SweepOutcome, SweepPlan};
use c4cam::telemetry::{cat, ArgValue, CollectingRecorder, Phase, Span, Telemetry};
use c4cam::workloads::{HdcWorkload, KnnWorkload, Workload, WorkloadInputs, WorkloadModule};
use c4cam_arch::{ArchSpec, CamKind, Optimization};
use c4cam_server::json::Json;
use common::{shipped_workloads, small_hdc, Twinned};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

/// Rebuild the architecture a sweep grid point uses (the paper
/// hierarchy; kind follows bits).
fn grid_spec(n: usize, opt: Optimization, bits: u32) -> ArchSpec {
    ArchSpec::builder()
        .subarray(n, n)
        .hierarchy(4, 4, 8)
        .cam_kind(if bits > 1 {
            CamKind::Mcam
        } else {
            CamKind::Tcam
        })
        .bits_per_cell(bits)
        .optimization(opt)
        .build()
        .unwrap()
}

#[test]
fn sweep_points_equal_individual_experiment_runs() {
    let workload = small_hdc();
    let outcome = SweepPlan::new(&workload)
        .square_subarrays([16, 32])
        .optimizations([Optimization::Base, Optimization::Power])
        .bits([1, 2])
        .run()
        .unwrap();
    assert_eq!(outcome.points.len(), 8);
    for point in &outcome.points {
        let spec = grid_spec(
            point.grid.subarray.0,
            point.grid.optimization,
            point.grid.bits_per_cell,
        );
        let individual = Experiment::new(&workload)
            .arch(spec)
            .backend("tape")
            .run()
            .unwrap();
        assert_eq!(
            point.outcome.total, individual.total,
            "stats diverged at {}",
            point.grid
        );
        assert_eq!(point.outcome.setup, individual.setup, "{}", point.grid);
        assert_eq!(
            point.outcome.query_phase, individual.query_phase,
            "{}",
            point.grid
        );
        assert_eq!(point.outcome.predictions, individual.predictions);
        assert_eq!(point.outcome.labels, individual.labels);
        assert_eq!(point.outcome.queries, individual.queries);
        assert_eq!(
            point.outcome.placement.physical_subarrays,
            individual.placement.physical_subarrays
        );
    }
}

#[test]
fn sweep_engines_and_threads_agree() {
    let workload = small_hdc();
    let base = SweepPlan::new(&workload)
        .square_subarrays([16])
        .optimizations([Optimization::Base])
        .run()
        .unwrap();
    let walk = SweepPlan::new(&workload)
        .square_subarrays([16])
        .optimizations([Optimization::Base])
        .backends(["walk"])
        .run()
        .unwrap();
    let threaded = SweepPlan::new(&workload)
        .square_subarrays([16])
        .optimizations([Optimization::Base])
        .threads(4)
        .run()
        .unwrap();
    assert_eq!(base.points[0].outcome.total, walk.points[0].outcome.total);
    assert_eq!(
        base.points[0].outcome.predictions,
        threaded.points[0].outcome.predictions
    );
    assert_eq!(
        base.points[0].outcome.total.search_ops,
        threaded.points[0].outcome.total.search_ops
    );
}

/// A simulated figure is a property of the design point, not of the
/// host: every fault-free priceable point reports the sequential fold
/// its tape prices to, so the thread count cannot move a bit of it.
#[test]
fn simulated_figures_do_not_depend_on_threads() {
    let hdc = HdcWorkload {
        queries: 16,
        ..small_hdc()
    };
    let knn = KnnWorkload {
        patterns: 24,
        dims: 96,
        queries: 16,
        k: 1,
        noise: 0.1,
        seed: 3,
    };
    let workloads: [&dyn Workload; 2] = [&hdc, &knn];
    for workload in workloads {
        let sweep = |threads| {
            SweepPlan::new(workload)
                .square_subarrays([16, 32])
                .bits([1, 2])
                .threads(threads)
                .run()
                .unwrap()
        };
        let (one, two) = (sweep(1), sweep(2));
        assert_eq!(one.points.len(), 16);
        for (a, b) in one.points.iter().zip(&two.points) {
            assert_eq!(a.outcome.total, b.outcome.total, "{}", a.grid);
            assert_eq!(a.outcome.setup, b.outcome.setup, "{}", a.grid);
            assert_eq!(a.outcome.query_phase, b.outcome.query_phase, "{}", a.grid);
            assert_eq!(a.outcome.predictions, b.outcome.predictions, "{}", a.grid);
        }
        assert_eq!(one.to_json(false), two.to_json(false));
    }
}

/// A workload that counts the modules and inputs it builds.
struct Counted {
    inner: HdcWorkload,
    modules: Cell<usize>,
    inputs: Cell<usize>,
}

impl Workload for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn query_count(&self) -> usize {
        self.inner.query_count()
    }
    fn stored_rows(&self) -> usize {
        self.inner.stored_rows()
    }
    fn dims(&self) -> usize {
        self.inner.dims()
    }
    fn build_module(&self, spec: &ArchSpec) -> WorkloadModule {
        self.modules.set(self.modules.get() + 1);
        self.inner.build_module(spec)
    }
    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        self.inputs.set(self.inputs.get() + 1);
        self.inner.inputs(spec)
    }
}

/// The §IV-C default grid at both cell widths (40 points), traced.
fn traced_two_width_sweep(workload: &dyn Workload) -> (SweepOutcome, Vec<Span>) {
    let recorder = Arc::new(CollectingRecorder::new());
    let outcome = SweepPlan::new(workload)
        .bits([1, 2])
        .telemetry(Telemetry::new(Arc::clone(&recorder) as _))
        .run()
        .unwrap();
    assert_eq!(outcome.points.len(), 40);
    let events = recorder.events();
    let spans = events.iter().filter_map(|e| e.as_span().cloned());
    (outcome, spans.collect())
}

/// Spans of `category`, named `name` (any name if empty).
fn spans_of<'s>(spans: &'s [Span], name: &str, category: &str) -> Vec<&'s Span> {
    let wanted = |s: &&Span| s.cat == category && (name.is_empty() || s.name == name);
    spans.iter().filter(wanted).collect()
}

/// Module, inputs and the pipeline's geometry-free prefix are built
/// once per cell width; every point still opens its own Compile phase,
/// though most take a plan an earlier point compiled.
#[test]
fn a_two_width_sweep_builds_and_lowers_each_module_once() {
    let workload = Counted {
        inner: small_hdc(),
        modules: Cell::new(0),
        inputs: Cell::new(0),
    };
    let (_, spans) = traced_two_width_sweep(&workload);
    assert_eq!((workload.modules.get(), workload.inputs.get()), (2, 2));
    assert_eq!(spans_of(&spans, "prefix", cat::PHASE).len(), 2);
    let compiles = spans_of(&spans, Phase::Compile.name(), cat::PHASE);
    assert_eq!(compiles.len(), 40);
}

/// The [`MapKey`]s of `workload` over the §IV-C default grid at both
/// cell widths, with each point's cell width.
fn grid_keys(workload: &dyn Workload) -> Vec<(u32, MapKey)> {
    let problem = MappingProblem {
        stored_rows: workload.stored_rows(),
        feature_dims: workload.dims(),
        queries: workload.query_count(),
    };
    let mut keys = Vec::new();
    for opt in [
        Optimization::Base,
        Optimization::Power,
        Optimization::Density,
        Optimization::PowerDensity,
    ] {
        for n in [16, 32, 64, 128, 256] {
            for bits in [1, 2] {
                keys.push((bits, map_key(&grid_spec(n, opt, bits), &problem).unwrap()));
            }
        }
    }
    keys
}

/// How many of `spans` carry the string argument `key: value`.
fn with_arg(spans: &[&Span], key: &str, value: &str) -> usize {
    let value = ArgValue::Str(value.to_string());
    let has = |s: &&&Span| s.args.iter().any(|(k, v)| *k == key && *v == value);
    spans.iter().filter(has).count()
}

/// `cam-map` never reads the cell width, the CAM kind or the
/// technology, and at 16×16 one 10-row tile fills a subarray, so
/// density maps as base does: the paper's 40-point grid lowers and
/// compiles 18 plans, one per distinct engine and map key, and the
/// other 22 points take one of them.
#[test]
fn a_paper_sweep_compiles_one_plan_per_map_key() {
    let workload = HdcWorkload::paper(4);
    let (_, spans) = traced_two_width_sweep(&workload);
    let distinct: HashSet<MapKey> = grid_keys(&workload).into_iter().map(|(_, k)| k).collect();
    assert_eq!(distinct.len(), 18);
    let compiles = spans_of(&spans, Phase::Compile.name(), cat::PHASE);
    assert_eq!(compiles.len(), 40);
    assert_eq!(with_arg(&compiles, "plan", "compiled"), distinct.len());
    assert_eq!(with_arg(&compiles, "plan", "shared"), 40 - distinct.len());
    assert_eq!(
        spans_of(&spans, "cam-map", cat::STAGE).len(),
        distinct.len()
    );
    assert_eq!(spans_of(&spans, "tape", cat::STAGE).len(), distinct.len());
}

/// A schedule is walked once per compiled plan: the paper's 40-point
/// grid prices 40 points from 18 walks, one inside the `price` span of
/// each point that compiled its plan, and the points that take a plan
/// retargeted charge the walk it memoised. The two donor runs, traced,
/// charge the device and walk nothing.
#[test]
fn a_paper_sweep_walks_one_schedule_per_plan() {
    let (_, spans) = traced_two_width_sweep(&HdcWorkload::paper(4));
    let price = spans_of(&spans, "price", cat::PHASE);
    let schedules = spans_of(&spans, "schedule", cat::STAGE);
    assert_eq!(price.len(), 40);
    assert_eq!(schedules.len(), 18);
    assert_eq!(schedules.len(), spans_of(&spans, "tape", cat::STAGE).len());
    let end = |s: &Span| s.start_ns + s.dur_ns;
    let inside =
        |outer: &Span, inner: &Span| outer.start_ns <= inner.start_ns && end(inner) <= end(outer);
    for walk in &schedules {
        assert!(price.iter().any(|p| inside(p, walk)));
    }
    let executed = spans_of(&spans, Phase::Execute.name(), cat::PHASE);
    assert_eq!(executed.len(), 2);
    for run in executed {
        assert!(!schedules.iter().any(|walk| inside(run, walk)));
    }
}

/// An HDC workload whose 2-bit module carries one extra, unused
/// constant: its two cell widths no longer lower to the same text.
struct WidthMarked(HdcWorkload);

impl Workload for WidthMarked {
    fn name(&self) -> &'static str {
        "width-marked"
    }
    fn query_count(&self) -> usize {
        self.0.query_count()
    }
    fn stored_rows(&self) -> usize {
        self.0.stored_rows()
    }
    fn dims(&self) -> usize {
        self.0.dims()
    }
    fn build_module(&self, spec: &ArchSpec) -> WorkloadModule {
        let mut built = self.0.build_module(spec);
        if spec.bits_per_cell > 1 {
            let m = &mut built.module;
            let func = m.lookup_symbol(built.func).expect("entry function");
            let entry = m.op(func).regions[0][0];
            let first = m.block(entry).ops[0];
            OpBuilder::before(m, first).const_index(7);
        }
        built
    }
    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        self.0.inputs(spec)
    }
}

/// Widths share plans only when their fused modules print the same:
/// a workload whose module reads the cell width compiles once per width
/// and map key, and every point still equals its own run.
#[test]
fn widths_whose_modules_differ_compile_their_own_plans() {
    let workload = WidthMarked(small_hdc());
    let (outcome, spans) = traced_two_width_sweep(&workload);
    let [one, two] = [1, 2].map(|bits| {
        let built = workload.build_module(&grid_spec(16, Optimization::Base, bits));
        print_module(&built.module)
    });
    assert_ne!(one, two);
    let per_width: HashSet<(u32, MapKey)> = grid_keys(&workload).into_iter().collect();
    let keys: HashSet<MapKey> = per_width.iter().map(|&(_, k)| k).collect();
    assert!(per_width.len() > keys.len());
    assert_eq!(
        spans_of(&spans, "cam-map", cat::STAGE).len(),
        per_width.len()
    );
    assert_eq!(spans_of(&spans, "tape", cat::STAGE).len(), per_width.len());
    for point in &outcome.points {
        let gp = &point.grid;
        let individual = Experiment::new(&workload)
            .arch(grid_spec(gp.subarray.0, gp.optimization, gp.bits_per_cell))
            .run()
            .unwrap();
        assert_eq!(point.outcome.predictions, individual.predictions, "{gp}");
        assert_eq!(point.outcome.total, individual.total, "{gp}");
    }
}

/// The device runs once per cell width, after the grid, on that
/// width's point whose run searches least (then provisions the fewest
/// cells), and every point accounts for its pricing with one `price`
/// span inside its grid span.
#[test]
fn a_two_width_sweep_executes_twice_and_prices_every_point() {
    let (outcome, spans) = traced_two_width_sweep(&small_hdc());
    let (grid, price) = (
        spans_of(&spans, "", cat::GRID),
        spans_of(&spans, "price", cat::PHASE),
    );
    assert_eq!((grid.len(), price.len()), (40, 40));
    let end = |s: &Span| s.start_ns + s.dur_ns;
    for (point, p) in grid.iter().zip(&price) {
        assert!(point.start_ns <= p.start_ns && end(p) <= end(point));
    }
    let executed = spans_of(&spans, Phase::Execute.name(), cat::PHASE);
    assert_eq!(executed.len(), 2);
    for (bits, run) in [1, 2].into_iter().zip(executed) {
        let fewest = (0..outcome.points.len())
            .filter(|&i| outcome.points[i].grid.bits_per_cell == bits)
            .min_by_key(|&i| {
                let p = &outcome.points[i];
                let placement = &p.outcome.placement;
                let searches = p.outcome.total.search_ops;
                (searches, p.area_cells(), placement.physical_subarrays, i)
            })
            .unwrap();
        let point = outcome.points[fewest].grid.to_string();
        assert!(run.args.contains(&("point", ArgValue::Str(point.clone()))));
        assert!(
            end(grid.last().unwrap()) <= run.start_ns,
            "{point} ran in the grid"
        );
    }
}

/// Tape and walk points, faulty and fault-free, at both widths: every
/// point, priced, executed or answered by another, equals its own run.
#[test]
fn a_mixed_sweep_equals_individual_runs_point_by_point() {
    let workload = small_hdc();
    let outcome = SweepPlan::new(&workload)
        .square_subarrays([16, 32])
        .optimizations([Optimization::Base, Optimization::Density])
        .bits([1, 2])
        .backends(["tape", "walk"])
        .fault_rates([0.0, 0.05])
        .fault_seed(5)
        .run()
        .unwrap();
    assert_eq!(outcome.points.len(), 32);
    for point in &outcome.points {
        let gp = &point.grid;
        let mut experiment = Experiment::new(&workload)
            .arch(grid_spec(gp.subarray.0, gp.optimization, gp.bits_per_cell))
            .backend(gp.engine.clone());
        if gp.fault_rate > 0.0 {
            experiment = experiment.faults(FaultConfig::with_rate(gp.fault_rate, gp.fault_seed));
        }
        let individual = experiment.run().unwrap();
        assert_eq!(point.outcome.predictions, individual.predictions, "{gp}");
        assert_eq!(point.outcome.total, individual.total, "{gp}");
    }
}

/// A sweep answers what the device answers, ties included. Every
/// shipped workload, as shipped and with twinned rows, is swept at
/// cell widths 1, 2 and 4 on both engines: its `tape` points are priced
/// and take one device run's answers per width, its `walk` points
/// execute, and every point equals its own executed run.
#[test]
fn a_sweep_answers_as_the_device_does_ties_included() {
    let twinned = shipped_workloads()
        .into_iter()
        .map(|w| (Box::new(Twinned(w)) as Box<dyn Workload>, true));
    let plain = shipped_workloads().into_iter().map(|w| (w, false));
    for (workload, twinned) in plain.chain(twinned) {
        let name = workload.name();
        let outcome = SweepPlan::new(workload.as_ref())
            .square_subarrays([16, 32])
            .optimizations([Optimization::Base, Optimization::Density])
            .bits([1, 2, 4])
            .backends(["tape", "walk"])
            .run()
            .unwrap();
        for pair in outcome.points.chunks(2) {
            let [tape, walk] = pair else {
                panic!("{name}: the backend axis is innermost")
            };
            assert_eq!((&*tape.grid.engine, &*walk.grid.engine), ("tape", "walk"));
            let answers = &tape.outcome.predictions;
            assert_eq!(answers, &walk.outcome.predictions, "{name} {}", tape.grid);
            if twinned {
                assert!(answers.iter().all(|i| i % 2 == 0), "{name}: {answers:?}");
            }
        }
        for point in &outcome.points {
            let gp = &point.grid;
            let individual = Experiment::new(workload.as_ref())
                .arch(grid_spec(gp.subarray.0, gp.optimization, gp.bits_per_cell))
                .backend(gp.engine.clone())
                .run()
                .unwrap();
            assert_eq!(
                point.outcome.predictions, individual.predictions,
                "{name} {gp}"
            );
            assert_eq!(point.outcome.total, individual.total, "{name} {gp}");
        }
    }
}

/// Why a sweep's answers come from a device run and not from the
/// golden model: the device ranks a `dot` kernel by symbol matches, the
/// golden model by the dot product, and at more than one bit per cell
/// the two can disagree. On twinned 2-bit HDC rows, query 3 is nearer
/// row 0 by dot product and row 2 by matching symbols.
#[test]
fn the_golden_model_does_not_answer_for_a_dot_kernels_device() {
    use c4cam::compiler::pipeline::C4camPipeline;
    use c4cam::runtime::{Executor, Value};
    let workload = Twinned(Box::new(small_hdc()));
    let spec = grid_spec(16, Optimization::Base, 2);
    let built = workload.build_module(&spec);
    let fused = C4camPipeline::new(spec.clone())
        .lower_prefix(built.module)
        .unwrap();
    let inputs = workload.inputs(&spec);
    let args = [
        Value::Tensor(inputs.queries.clone()),
        Value::Tensor(inputs.stored.clone()),
    ];
    let outputs = Executor::new(&fused.module).run(built.func, &args).unwrap();
    let golden: Vec<usize> = outputs[1]
        .as_tensor()
        .unwrap()
        .data()
        .iter()
        .map(|&i| i as usize)
        .collect();
    let device = Experiment::new(&workload).arch(spec).run().unwrap();
    assert_eq!(golden, [0, 0, 2, 0]);
    assert_eq!(device.predictions, [0, 0, 2, 2]);
}

/// Two architectures of cell width `bits` that share nothing else:
/// geometry, optimisation and hierarchy all differ.
fn far_apart_specs(bits: u32) -> [ArchSpec; 2] {
    let mut other = grid_spec(256, Optimization::PowerDensity, bits);
    (other.mats_per_bank, other.banks) = (2, Some(64));
    [grid_spec(16, Optimization::Base, bits), other]
}

/// The sweep materialises a workload's inputs once per cell width:
/// `bits_per_cell` is the only field of the architecture any shipped
/// workload's inputs read.
#[test]
fn workload_inputs_depend_on_the_cell_width_only() {
    for workload in shipped_workloads() {
        for bits in [1, 2] {
            let [a, b] = far_apart_specs(bits).map(|spec| workload.inputs(&spec));
            assert_eq!(a.stored.shape(), b.stored.shape(), "{}", workload.name());
            assert_eq!(a.stored.data(), b.stored.data(), "{}", workload.name());
            assert_eq!(a.queries.data(), b.queries.data(), "{}", workload.name());
            assert_eq!(a.labels, b.labels, "{}", workload.name());
        }
    }
}

/// ... and builds and lowers its module once per cell width: no shipped
/// workload's module reads more of the architecture than
/// `bits_per_cell`.
#[test]
fn workload_modules_depend_on_the_cell_width_only() {
    for workload in shipped_workloads() {
        for bits in [1, 2] {
            let [a, b] = far_apart_specs(bits).map(|spec| workload.build_module(&spec));
            assert_eq!(print_module(&a.module), print_module(&b.module));
            assert_eq!((a.func, a.arg_order), (b.func, b.arg_order));
        }
    }
}

/// A workload that hands over its stored rows flattened to rank 1:
/// every stage up to execution accepts it, and the first slice of the
/// programming nest fails.
struct MisShaped(HdcWorkload);

impl Workload for MisShaped {
    fn name(&self) -> &'static str {
        "mis-shaped"
    }
    fn query_count(&self) -> usize {
        self.0.query_count()
    }
    fn stored_rows(&self) -> usize {
        self.0.stored_rows()
    }
    fn dims(&self) -> usize {
        self.0.dims()
    }
    fn build_module(&self, spec: &ArchSpec) -> WorkloadModule {
        self.0.build_module(spec)
    }
    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        let inputs = self.0.inputs(spec);
        let flat = vec![inputs.stored.len()];
        WorkloadInputs {
            stored: inputs.stored.reshape(flat).unwrap(),
            ..inputs
        }
    }
}

/// A schedule the evaluator declines is executed, so a sweep over it
/// fails exactly as an individual run does: same stage, same cause.
#[test]
fn an_unpriceable_point_fails_as_its_individual_run_does() {
    let workload = MisShaped(small_hdc());
    let spec = grid_spec(16, Optimization::Base, 1);
    let compiled = Experiment::new(&workload)
        .arch(spec.clone())
        .compile()
        .unwrap();
    let declined = compiled.cost(4).unwrap_err();
    assert!(
        declined.to_string().contains("the run would fail"),
        "{declined}"
    );
    let individual = compiled.run().unwrap_err();
    assert_eq!(individual.stage(), "exec");

    let swept = SweepPlan::new(&workload)
        .square_subarrays([16])
        .optimizations([Optimization::Base])
        .run()
        .unwrap_err();
    assert_eq!(swept.stage(), "exec");
    let cause = individual.to_string();
    let cause = cause.trim_start_matches("driver error [exec]: ");
    assert!(swept.to_string().ends_with(cause), "{swept}\n{individual}");
    assert!(swept.to_string().contains("grid point [16x16"), "{swept}");
}

/// Field `key` of a JSON object; a missing key fails the test.
fn field<'j>(v: &'j Json, key: &str) -> &'j Json {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key '{key}' in {v:?}"))
}

fn num(v: &Json, key: &str) -> f64 {
    field(v, key)
        .as_f64()
        .unwrap_or_else(|| panic!("'{key}' is not a number in {v:?}"))
}

fn text<'j>(v: &'j Json, key: &str) -> &'j str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("'{key}' is not a string in {v:?}"))
}

#[test]
fn cli_sweep_json_parses_and_matches_individual_runs() {
    let args: Vec<String> = [
        "sweep",
        "--workload",
        "hdc",
        "--classes",
        "4",
        "--dims",
        "128",
        "--queries",
        "4",
        "--subarrays",
        "16,32",
        "--opts",
        "base,power",
        "--format",
        "json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let command = parse_args(&args).unwrap();
    assert!(matches!(command, Command::Sweep(_)));
    let output = execute(&command).unwrap();
    // Genuinely parsed, not just grepped.
    let json = Json::parse(&output).expect("the sweep report is JSON");
    assert_eq!(text(&json, "workload"), "hdc");
    let points = field(&json, "points").as_arr().expect("points array");
    assert_eq!(points.len(), 4, "2 sizes x 2 opts");

    // The CLI's hdc workload at these overrides keeps the paper's
    // flip-rate/seed; mirror it exactly.
    let workload = small_hdc();
    for point in points {
        let n = num(point, "subarray_rows") as usize;
        assert_eq!(num(point, "subarray_cols") as usize, n);
        let opt = Optimization::from_keyword(text(point, "optimization")).unwrap();
        let bits = num(point, "bits_per_cell") as u32;
        let individual = Experiment::new(&workload)
            .arch(grid_spec(n, opt, bits))
            .run()
            .unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(
            close(
                num(point, "latency_per_query_ns"),
                individual.latency_per_query_ns()
            ),
            "latency diverged at {n}x{n}/{opt:?}"
        );
        assert!(close(
            num(point, "energy_per_query_pj"),
            individual.energy_per_query_pj()
        ));
        assert!(close(num(point, "accuracy"), individual.accuracy()));
        assert_eq!(
            num(point, "physical_subarrays") as usize,
            individual.placement.physical_subarrays
        );
        // The embedded query-phase stats are the PR 2 JSON plumbing.
        let stats = field(point, "query_phase");
        assert!(close(
            num(stats, "latency_ns"),
            individual.query_phase.latency_ns
        ));
        assert_eq!(
            num(stats, "search_ops") as u64,
            individual.query_phase.search_ops
        );
    }
}

#[test]
fn cli_sweep_csv_has_stable_header_and_matching_rows() {
    let args: Vec<String> = [
        "sweep",
        "--workload",
        "hdc",
        "--classes",
        "4",
        "--dims",
        "128",
        "--queries",
        "4",
        "--subarrays",
        "32,64",
        "--opts",
        "base,power",
        "--format",
        "csv",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let output = execute(&parse_args(&args).unwrap()).unwrap();
    let mut lines = output.lines();
    let header = lines.next().unwrap();
    assert_eq!(
        header,
        "workload,subarray_rows,subarray_cols,optimization,technology,bits_per_cell,engine,\
         physical_subarrays,banks,latency_per_query_ns,energy_per_query_pj,power_mw,\
         area_cells,accuracy,pareto,fault_rate"
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 4, "2x2 grid");
    let columns = header.split(',').count();
    for row in &rows {
        assert_eq!(row.split(',').count(), columns, "ragged row: {row}");
        assert!(row.starts_with("hdc,"), "{row}");
    }
    // The numbers agree with an individual run at the same config.
    let workload = small_hdc();
    let first: Vec<&str> = rows[0].split(',').collect();
    let individual = Experiment::new(&workload)
        .arch(grid_spec(32, Optimization::Base, 1))
        .run()
        .unwrap();
    let lat: f64 = first[9].parse().unwrap();
    assert!((lat - individual.latency_per_query_ns()).abs() < 1e-9);
}

#[test]
fn cli_sweep_pareto_filter_returns_a_subset() {
    let base: Vec<String> = [
        "sweep",
        "--workload",
        "hdc",
        "--classes",
        "4",
        "--dims",
        "128",
        "--queries",
        "4",
        "--subarrays",
        "16,32",
        "--opts",
        "base,power",
        "--format",
        "csv",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let all = execute(&parse_args(&base).unwrap()).unwrap();
    let mut pareto_args = base.clone();
    pareto_args.push("--pareto".to_string());
    let pareto = execute(&parse_args(&pareto_args).unwrap()).unwrap();
    let all_rows = all.lines().count() - 1;
    let pareto_rows = pareto.lines().count() - 1;
    assert!(pareto_rows >= 1 && pareto_rows <= all_rows);
    // Every pareto row appears among the full rows, flagged true.
    for row in pareto.lines().skip(1) {
        assert!(row.ends_with(",true,0"), "{row}");
        assert!(all.contains(row), "pareto row missing from full output");
    }
}

/// `c4cam sweep` with `flags`, as the binary prints it.
fn cli_sweep(flags: &str) -> String {
    let args: Vec<String> = std::iter::once("sweep")
        .chain(flags.split_whitespace())
        .map(str::to_string)
        .collect();
    let mut out = execute(&parse_args(&args).unwrap()).unwrap();
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// The reports of a 24-point grid, byte for byte as the build before
/// the static evaluator printed them at `--threads 1`.
fn assert_reports_match_the_goldens(threads: usize) {
    const GRID: &str =
        "--subarrays 16,32,64 --opts base,power,density,power+density --bits 1,2 --queries 4";
    let golden = |name: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        std::fs::read_to_string(path.join(name)).unwrap()
    };
    let run = |flags: &str| cli_sweep(&format!("{GRID} --threads {threads} {flags}"));
    assert_eq!(run("--format json"), golden("sweep_hdc.json"));
    assert_eq!(run("--format csv"), golden("sweep_hdc.csv"));
    assert_eq!(run("--workload knn --format csv"), golden("sweep_knn.csv"));
    // Technologies and cell widths at geometries where density maps as
    // base does: the axes a shared plan crosses.
    let tech = "--subarrays 16,64 --opts base,density --techs default,fefet-45nm,cmos-16nm \
                --bits 1,2 --queries 4 --format csv";
    assert_eq!(
        cli_sweep(&format!("{tech} --threads {threads}")),
        golden("sweep_tech.csv")
    );
}

#[test]
fn sweep_reports_match_the_goldens() {
    assert_reports_match_the_goldens(1);
}

/// ... and now at any thread count (171 fields differed before).
#[test]
fn sweep_reports_match_the_goldens_at_two_threads() {
    assert_reports_match_the_goldens(2);
}
