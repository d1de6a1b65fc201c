//! The cost model's independent check: `Tape::price` — an evaluation of
//! the schedule alone, no plane allocated, no tensor read — must equal
//! simulation **to the bit** on every `ExecStats` field of the total,
//! the `setup-complete` snapshot and the query phase. Held over every
//! shipped workload kind × cell width × optimisation × geometry, for the
//! specialised tape and for one the specialiser declines; plus the
//! linear closed form the evaluator deliberately does not use, and the
//! reasons it gives when it declines.

mod common;

use c4cam::arch::tech::TechnologyModel;
use c4cam::arch::{ArchSpec, Optimization};
use c4cam::camsim::{CamMachine, ExecStats};
use c4cam::compiler::dialects::scf;
use c4cam::compiler::mapping::MappingProblem;
use c4cam::compiler::passes::cam_map::map_key;
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::datasets::{mini_mnist, DatasetTask, DatasetWorkload};
use c4cam::driver::{build_arch, Experiment};
use c4cam::engine::{Priced, Tape, Unpriced, Unspecialised};
use c4cam::hal::{BackendRegistry, ExecOptions, FaultConfig};
use c4cam::ir::builder::OpBuilder;
use c4cam::ir::Module;
use c4cam::runtime::Value;
use c4cam::workloads::{ArgOrder, DtreeWorkload, HdcWorkload, KnnWorkload, Workload};

const OPTIMIZATIONS: [Optimization; 4] = [
    Optimization::Base,
    Optimization::Power,
    Optimization::Density,
    Optimization::PowerDensity,
];

/// A subarray geometry and the hierarchy fan-outs above it.
type Geometry = ((usize, usize), (usize, usize, usize));

/// Square 16/32/64 on the paper hierarchy, one non-square geometry, and
/// one small hierarchy (more banks, fuller arrays).
const GEOMETRIES: [Geometry; 5] = [
    ((16, 16), (4, 4, 8)),
    ((32, 32), (4, 4, 8)),
    ((64, 64), (4, 4, 8)),
    ((24, 40), (4, 4, 8)),
    ((32, 32), (2, 2, 4)),
];

fn workloads() -> Vec<Box<dyn Workload>> {
    workloads_at([3, 3, 3, 2])
}

/// One workload of each shipped kind — HDC, kNN, decision tree and the
/// mini-MNIST HDC dataset — running `queries[i]` queries (the dataset's
/// query pool holds 64).
fn workloads_at(queries: [usize; 4]) -> Vec<Box<dyn Workload>> {
    let dataset = mini_mnist::dataset();
    vec![
        Box::new(HdcWorkload {
            classes: 5,
            dims: 200,
            queries: queries[0],
            flip_rate: 0.1,
            seed: 3,
        }),
        Box::new(KnnWorkload {
            patterns: 40,
            dims: 70,
            queries: queries[1],
            k: 2,
            noise: 0.2,
            seed: 5,
        }),
        Box::new(DtreeWorkload::new(9, 3, 4, queries[2], 7)),
        Box::new(DatasetWorkload::new(dataset, DatasetTask::Hdc, Some(queries[3])).unwrap()),
    ]
}

/// Every field, floats by bit pattern (`==` would let `-0.0` pass for
/// `0.0`).
fn assert_same_bits(got: &ExecStats, want: &ExecStats, what: &str) {
    let ints = |s: &ExecStats| {
        [
            s.search_ops,
            s.searched_words,
            s.write_ops,
            s.read_ops,
            s.merge_ops,
            s.fault_cells,
            s.fault_transients,
            s.rows_remapped,
            s.banks_allocated as u64,
            s.mats_allocated as u64,
            s.arrays_allocated as u64,
            s.subarrays_allocated as u64,
        ]
    };
    let floats = |s: &ExecStats| {
        [
            s.cell_energy_fj,
            s.periph_energy_fj,
            s.merge_energy_fj,
            s.write_energy_fj,
            s.static_energy_fj,
            s.latency_ns,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(ints(got), ints(want), "{what}: counters\n{got:?}\n{want:?}");
    assert_eq!(
        floats(got),
        floats(want),
        "{what}: floats\n{got:?}\n{want:?}"
    );
}

/// `workload` lowered for `spec`: its tape (left as loops when
/// `looped`), its arguments and their shapes.
fn lowered(workload: &dyn Workload, spec: &ArchSpec, looped: bool) -> (Tape, Vec<Value>) {
    let (tape, args) = if looped {
        edited(workload, spec, common::keep_query_loops)
    } else {
        edited(workload, spec, |_, _| {})
    };
    let want = if looped {
        Err(Unspecialised::IvEscapes)
    } else {
        Ok(())
    };
    assert_eq!(tape.specialised(), want, "{}", workload.name());
    (tape, args)
}

/// `workload` lowered for `spec` with `edit(module, func)` applied to
/// the mapped module: its tape and arguments.
fn edited(
    workload: &dyn Workload,
    spec: &ArchSpec,
    edit: impl FnOnce(&mut Module, &str),
) -> (Tape, Vec<Value>) {
    let built = workload.build_module(spec);
    let mut compiled = C4camPipeline::new(spec.clone())
        .compile(built.module)
        .unwrap();
    edit(&mut compiled.module, built.func);
    let tape = Tape::compile(&compiled.module, built.func).unwrap();
    let inputs = workload.inputs(spec);
    let (stored, queries) = (Value::Tensor(inputs.stored), Value::Tensor(inputs.queries));
    let args = match built.arg_order {
        ArgOrder::QueriesThenStored => vec![queries, stored],
        ArgOrder::StoredThenQueries => vec![stored, queries],
    };
    (tape, args)
}

fn shapes(args: &[Value]) -> Vec<&[usize]> {
    let tensors = args.iter().map(|a| a.as_tensor().unwrap());
    tensors.map(|t| t.shape()).collect()
}

fn price(tape: &Tape, args: &[Value], spec: &ArchSpec, queries: usize) -> Result<Priced, Unpriced> {
    let tech = TechnologyModel::fefet_45nm();
    tape.price(&shapes(args), spec, &tech, queries)
}

/// Every field of two pricings or runs, phases included, to the bit.
fn assert_same_run(got: &Priced, stats: &ExecStats, phases: &[(String, ExecStats)], what: &str) {
    assert_same_bits(&got.total, stats, what);
    assert_eq!(got.phases.len(), phases.len(), "{what}");
    for ((pn, ps), (mn, ms)) in got.phases.iter().zip(phases) {
        assert_eq!(pn, mn, "{what}");
        assert_same_bits(ps, ms, &format!("{what}: phase {pn}"));
    }
}

/// Simulation, the price at the workload's query count and the price
/// of the trips the tape spells agree on every field.
#[test]
fn static_cost_equals_simulation_to_the_bit_over_the_grid() {
    let mut points = 0;
    for workload in workloads() {
        for bits in [1, 2, 4] {
            for opt in OPTIMIZATIONS {
                for (subarray, hierarchy) in GEOMETRIES {
                    let spec = build_arch(subarray, hierarchy, opt, bits).unwrap();
                    for looped in [false, true] {
                        let what = format!(
                            "{} {bits}b {opt:?} {subarray:?} {hierarchy:?} looped={looped}",
                            workload.name()
                        );
                        let (tape, args) = lowered(workload.as_ref(), &spec, looped);
                        let mut machine = CamMachine::new(&spec);
                        tape.run(&mut machine, &args).unwrap();
                        let priced = price(&tape, &args, &spec, workload.query_count())
                            .unwrap_or_else(|why| panic!("{what}: unpriced: {why}"));
                        assert_same_run(&priced, &machine.stats(), machine.phases(), &what);
                        // The trip count the tape spells is the run's.
                        let tech = TechnologyModel::fefet_45nm();
                        let as_written = tape
                            .price_as_written(&shapes(&args), &spec, &tech)
                            .unwrap_or_else(|why| panic!("{what}: unpriced as written: {why}"));
                        assert_same_run(&as_written, &machine.stats(), machine.phases(), &what);
                        let setup = machine.phase("setup-complete").expect("setup marker");
                        assert_same_bits(&priced.setup(), setup, &what);
                        let query_phase = machine.stats().delta(setup);
                        assert_same_bits(&priced.query_phase(), &query_phase, &what);
                        assert!(query_phase.search_ops > 0 && setup.write_ops > 0, "{what}");
                        points += 1;
                    }
                }
            }
        }
    }
    assert_eq!(points, 4 * 3 * 4 * 5 * 2);
}

/// One schedule, many specs: a walk reads nothing of a spec but its
/// floorplan, so the schedule walked under one spec, charged for any
/// spec that shares its `MapKey` — another cell width, technology or
/// optimisation — is `Tape::price` of that spec's own tape, to the bit,
/// at the workload's query count and at another; and it answers the
/// run as written with the count the tape spells.
#[test]
fn one_schedule_charges_every_spec_of_its_map_key() {
    let techs = [
        TechnologyModel::default(),
        TechnologyModel::fefet_45nm(),
        TechnologyModel::cmos_tcam_16nm(),
    ];
    let (mut charged, mut across) = (0, [0; 2]);
    for workload in workloads() {
        let n = workload.query_count();
        let problem = MappingProblem {
            stored_rows: workload.stored_rows(),
            feature_dims: workload.dims(),
            queries: n,
        };
        for (subarray, hierarchy) in GEOMETRIES {
            let specs: Vec<ArchSpec> = [1, 2]
                .into_iter()
                .flat_map(|bits| {
                    OPTIMIZATIONS.map(|opt| build_arch(subarray, hierarchy, opt, bits).unwrap())
                })
                .collect();
            let keys: Vec<_> = specs
                .iter()
                .map(|s| map_key(s, &problem).unwrap())
                .collect();
            let tapes: Vec<_> = specs
                .iter()
                .map(|spec| lowered(workload.as_ref(), spec, false))
                .collect();
            for ((walked, key), (tape, args)) in specs.iter().zip(&keys).zip(&tapes) {
                let schedule = tape.schedule(&shapes(args), walked, Some(n)).unwrap();
                assert_eq!(schedule.trips(None), Some(n), "{}", workload.name());
                let others = specs.iter().zip(&keys).zip(&tapes);
                for ((spec, _), (own, own_args)) in others.filter(|((_, k), _)| *k == key) {
                    assert_eq!(shapes(args), shapes(own_args));
                    for tech in &techs {
                        for trips in [n, 2 * n + 1] {
                            let what = format!(
                                "{} {subarray:?} {hierarchy:?}: walked {}b {:?}, \
                                 charged {}b {:?} {} at {trips}",
                                workload.name(),
                                walked.bits_per_cell,
                                walked.optimization,
                                spec.bits_per_cell,
                                spec.optimization,
                                tech.name
                            );
                            let got = schedule.charge(spec, tech, trips).unwrap();
                            let want = own.price(&shapes(own_args), spec, tech, trips).unwrap();
                            assert_same_run(&got, &want.total, &want.phases, &what);
                            charged += 1;
                        }
                    }
                    across[0] += usize::from(spec.bits_per_cell != walked.bits_per_cell);
                    across[1] += usize::from(spec.optimization != walked.optimization);
                }
            }
        }
    }
    assert!(charged > 4 * 5 * 8 * 6, "{charged}");
    assert!(across.iter().all(|&n| n > 0), "{across:?}");
}

/// Trip counts the one-trip replay is held to simulation at. A debug
/// build simulates 1024 queries in ~0.1–0.3 s, so that count runs on
/// one geometry per workload × cell width × optimisation, a different
/// one for each in turn (48 points, every geometry among them).
const TRIPS: [usize; 5] = [1, 2, 3, 17, 1024];

/// A specialised body is priced by walking one trip and replaying its
/// charges. At every trip count, on every specialised grid point (see
/// [`TRIPS`] for 1024), that equals to the bit the simulation of the
/// same workload compiled for that many queries — except mini-MNIST
/// past its 64-query pool, held to the walk the evaluator makes of the
/// body left as loops instead.
#[test]
fn one_trip_replayed_equals_simulation_at_every_trip_count() {
    let points = std::thread::scope(|scope| {
        let kinds: Vec<_> = (0..4)
            .map(|kind| scope.spawn(move || replay_equals_simulation(kind)))
            .collect();
        kinds.into_iter().map(|k| k.join().unwrap()).sum::<usize>()
    });
    assert_eq!(points, 4 * 3 * 4 * (5 * (TRIPS.len() - 1) + 1));
}

/// [`one_trip_replayed_equals_simulation_at_every_trip_count`] for the
/// `kind`-th workload (one thread each); the points it checked.
fn replay_equals_simulation(kind: usize) -> usize {
    let workload = workloads().swap_remove(kind);
    let simulated: Vec<_> = TRIPS
        .iter()
        .map(|&n| workloads_at([n; 4]).swap_remove(kind))
        .collect();
    let (mut points, mut turn) = (0, 0);
    for bits in [1, 2, 4] {
        for opt in OPTIMIZATIONS {
            turn += 1;
            for (g, (subarray, hierarchy)) in GEOMETRIES.into_iter().enumerate() {
                let spec = build_arch(subarray, hierarchy, opt, bits).unwrap();
                let (tape, args) = lowered(workload.as_ref(), &spec, false);
                for (&trips, simulated) in TRIPS.iter().zip(&simulated) {
                    if trips == 1024 && g != turn % GEOMETRIES.len() {
                        continue;
                    }
                    let what = format!(
                        "{} {bits}b {opt:?} {subarray:?} {hierarchy:?} at {trips}",
                        workload.name()
                    );
                    let replayed = price(&tape, &args, &spec, trips).unwrap();
                    if simulated.query_count() == trips {
                        let (tape, args) = lowered(simulated.as_ref(), &spec, false);
                        let mut machine = CamMachine::new(&spec);
                        tape.run(&mut machine, &args).unwrap();
                        assert_same_run(&replayed, &machine.stats(), machine.phases(), &what);
                    } else {
                        let (looped, args) = lowered(workload.as_ref(), &spec, true);
                        let walked = price(&looped, &args, &spec, trips).unwrap();
                        assert_same_run(&replayed, &walked.total, &walked.phases, &what);
                    }
                    points += 1;
                }
            }
        }
    }
    points
}

/// A body left as loops is walked trip by trip, never replayed: here
/// query `q` also makes `q` bank merges (a loop bounded by the query
/// index, which keeps the specialiser out), so no two trips charge
/// alike, and the price still equals the run at every trip count.
#[test]
fn a_body_left_as_loops_is_walked_trip_by_trip() {
    let spec = build_arch((32, 32), (4, 4, 8), Optimization::Power, 1).unwrap();
    for trips in [1, 2, 3, 17] {
        let hdc = HdcWorkload {
            classes: 5,
            dims: 200,
            queries: trips,
            flip_rate: 0.1,
            seed: 3,
        };
        let (tape, args) = edited(&hdc, &spec, merges_per_query_index);
        assert_eq!(tape.specialised(), Err(Unspecialised::IvEscapes));
        let mut machine = CamMachine::new(&spec);
        tape.run(&mut machine, &args).unwrap();
        let walked = price(&tape, &args, &spec, trips).unwrap();
        let what = format!("{trips} trips");
        assert_same_run(&walked, &machine.stats(), machine.phases(), &what);
        let plain = price(&lowered(&hdc, &spec, false).0, &args, &spec, trips).unwrap();
        let extra = (trips * (trips - 1) / 2) as u64;
        assert_eq!(
            walked.total.merge_ops,
            plain.total.merge_ops + extra,
            "{what}"
        );
    }
}

/// At the head of `func`'s query body, a loop of as many `cam.merge_level`
/// trips as the query index.
fn merges_per_query_index(m: &mut Module, func: &str) {
    let func = m.lookup_symbol(func).expect("function");
    let entry = m.op(func).regions[0][0];
    let query_loop = *m
        .block(entry)
        .ops
        .iter()
        .find(|&&op| m.op(op).name == "scf.for")
        .expect("the query loop is the top-level scf.for");
    let body = m.op(query_loop).regions[0][0];
    let (head, iv) = (m.block(body).ops[0], m.block(body).args[0]);
    let mut b = OpBuilder::before(m, head);
    let (lb, step) = (b.const_index(0), b.const_index(1));
    let (_, merges, _) = scf::build_for(&mut b, lb, iv, step);
    OpBuilder::at_end(m, merges).op("cam.merge_level", &[], &[], vec![("level", "bank".into())]);
    scf::end_body(m, merges, &[]);
}

/// The trip count is a parameter of the price, not of the tape: a tape
/// compiled at 3 queries priced at 7 equals the 7-query tape's run.
#[test]
fn a_tape_prices_at_any_query_count() {
    let hdc = |queries| HdcWorkload {
        classes: 5,
        dims: 200,
        queries,
        flip_rate: 0.1,
        seed: 3,
    };
    for opt in OPTIMIZATIONS {
        let spec = build_arch((32, 32), (4, 4, 8), opt, 2).unwrap();
        for looped in [false, true] {
            let (three, args) = lowered(&hdc(3), &spec, looped);
            let (seven, seven_args) = lowered(&hdc(7), &spec, looped);
            let mut machine = CamMachine::new(&spec);
            seven.run(&mut machine, &seven_args).unwrap();
            let priced = price(&three, &args, &spec, 7).unwrap();
            assert_same_bits(&priced.total, &machine.stats(), "3-query tape at 7");
        }
    }
}

/// `setup + n × per_query` is the linear extrapolation the paper-figure
/// benches used to print.
/// It is close — within one ulp per query — but not the fold the
/// simulator performs, which is why the evaluator walks every query.
#[test]
fn the_linear_closed_form_is_within_an_ulp_per_query() {
    let n = 1000usize;
    let mut inexact = 0;
    for workload in workloads() {
        for opt in OPTIMIZATIONS {
            let spec = build_arch((32, 32), (4, 4, 8), opt, 2).unwrap();
            let (tape, args) = lowered(workload.as_ref(), &spec, false);
            let one = price(&tape, &args, &spec, 1).unwrap();
            let many = price(&tape, &args, &spec, n).unwrap();
            let (setup, per_query) = (one.setup(), one.query_phase());
            assert_eq!(
                many.total.search_ops,
                setup.search_ops + n as u64 * per_query.search_ops
            );
            assert_eq!(
                many.total.searched_words,
                n as u64 * per_query.searched_words
            );
            let fields = |s: &ExecStats| {
                [
                    s.cell_energy_fj,
                    s.periph_energy_fj,
                    s.merge_energy_fj,
                    s.static_energy_fj,
                    s.latency_ns,
                ]
            };
            for ((exact, s), q) in fields(&many.total)
                .into_iter()
                .zip(fields(&setup))
                .zip(fields(&per_query))
            {
                let closed = s + n as f64 * q;
                let ulp = exact.abs() * f64::EPSILON;
                assert!(
                    (exact - closed).abs() <= n as f64 * ulp,
                    "{} {opt:?}: {exact} vs {closed}",
                    workload.name()
                );
                inexact += usize::from(exact.to_bits() != closed.to_bits());
            }
        }
    }
    assert!(
        inexact > 0,
        "the closed form happened to be exact everywhere"
    );
}

#[test]
fn what_cannot_be_priced_says_why() {
    let hdc = HdcWorkload {
        classes: 5,
        dims: 200,
        queries: 3,
        flip_rate: 0.1,
        seed: 3,
    };
    let spec = build_arch((16, 16), (4, 4, 8), Optimization::Base, 1).unwrap();
    let (tape, args) = lowered(&hdc, &spec, false);

    // A bank budget the allocation nest overruns: what the device would
    // say, not a panic.
    let mut cramped = spec.clone();
    cramped.banks = Some(1);
    cramped.mats_per_bank = 1;
    let why = price(&tape, &args, &cramped, 3).unwrap_err();
    assert!(
        matches!(&why, Unpriced::Rejected(m) if m.contains("already has 1 mats")),
        "{why}"
    );
    let ran = tape.run(&mut CamMachine::new(&cramped), &args).unwrap_err();
    assert!(ran.message.contains("already has 1 mats"), "{ran}");

    // Stored rows wider than the subarray: a write out of range.
    let mut narrow = spec.clone();
    narrow.cols_per_subarray = 8;
    let why = price(&tape, &args, &narrow, 3).unwrap_err();
    assert!(
        matches!(&why, Unpriced::Rejected(m) if m.contains("but subarray has 8 columns")),
        "{why}"
    );
    let ran = tape.run(&mut CamMachine::new(&narrow), &args).unwrap_err();
    assert!(ran.message.contains("but subarray has 8 columns"), "{ran}");

    // The wrong number of arguments.
    let why = price(&tape, &args[..1], &spec, 3).unwrap_err();
    assert!(matches!(why, Unpriced::Rejected(_)), "{why}");

    // Through the HAL: a fault model is device state, and the walker
    // has no schedule.
    let built = hdc.build_module(&spec);
    let module = C4camPipeline::new(spec.clone())
        .compile(built.module)
        .unwrap()
        .module;
    let shapes = shapes(&args);
    let plan = |name: &str| {
        let backend = BackendRegistry::global().get(name).unwrap();
        backend.compile(&module, built.func, &spec).unwrap()
    };
    let faulty = ExecOptions::sequential().with_faults(FaultConfig::with_rate(0.01, 7));
    assert_eq!(
        plan("tape").price(&shapes, &faulty, 3).unwrap_err(),
        Unpriced::Faults
    );
    assert_eq!(
        plan("walk")
            .price(&shapes, &ExecOptions::sequential(), 3)
            .unwrap_err(),
        Unpriced::NoSchedule
    );
    let priced = plan("tape")
        .price(&shapes, &ExecOptions::sequential(), 3)
        .unwrap();
    let ran = plan("tape")
        .execute(&args, &ExecOptions::sequential())
        .unwrap();
    assert_same_bits(&priced.total, &ran.stats, "through the HAL");
}

/// `CompiledExperiment::cost` is the price of the compiled plan: at the
/// compiled query count it is the run's statistics, at any other the
/// statistics of that many queries.
#[test]
fn a_compiled_experiment_costs_what_it_runs() {
    let hdc = |queries| HdcWorkload {
        classes: 4,
        dims: 256,
        queries,
        flip_rate: 0.0,
        seed: 1,
    };
    let arch = build_arch((32, 32), (4, 4, 8), Optimization::Power, 1).unwrap();
    let four = hdc(4);
    let compiled = Experiment::new(&four).arch(arch.clone()).compile().unwrap();
    let ran = compiled.run().unwrap();
    let cost = compiled.cost(4).unwrap();
    assert_same_bits(&cost.total, &ran.total, "total");
    assert_same_bits(&cost.setup(), &ran.setup, "setup");
    assert_same_bits(&cost.query_phase(), &ran.query_phase, "query phase");

    let eight = Experiment::new(&hdc(8)).arch(arch).run().unwrap();
    let at_eight = compiled.cost(8).unwrap().query_phase();
    assert_same_bits(&at_eight, &eight.query_phase, "8 queries");
    // Power is scale-invariant, to rounding.
    assert!((at_eight.power_w() - ran.query_phase.power_w()).abs() < 1e-12);
}
