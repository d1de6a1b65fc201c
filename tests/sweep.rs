//! Integration tests of the `SweepPlan` design-space runner and the
//! `c4cam sweep` subcommand: grid points must reproduce individual
//! [`Experiment`] runs exactly, and the CLI's JSON/CSV reports must
//! parse and carry the same numbers.

use c4cam::cli::{execute, parse_args, Command};
use c4cam::driver::Experiment;
use c4cam::sweep::SweepPlan;
use c4cam::workloads::HdcWorkload;
use c4cam_arch::{ArchSpec, CamKind, Optimization};
use c4cam_server::json::Json;

fn small_hdc() -> HdcWorkload {
    HdcWorkload {
        classes: 4,
        dims: 128,
        queries: 4,
        flip_rate: 0.1,
        seed: 42,
    }
}

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
        assert_eq!(point.outcome.predictions, individual.predictions);
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
