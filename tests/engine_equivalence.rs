//! Property tests (vendored proptest): for randomly shaped hdc- and
//! knn-style modules, EVERY backend registered in the HAL must produce
//! bit-identical results and identical energy/latency statistics to
//! the tree-walking interpreter, and every thread-capable backend must
//! reproduce the outputs exactly when the query loop is sharded. The
//! tape's recorder is held to the same contract: a `Tape::run_traced`
//! recording replayed on a fresh machine equals the walker.
//!
//! The tape's query-body specialisation rides on the same contract: a
//! grid over everything the mapping varies (optimisation, cell bits,
//! subarray size, a padded tail chunk, one / two / seven queries) must
//! hold it whether the body was flattened or — by an edit the pass
//! cannot prove — left as loops; every shipped workload states whether
//! it specialises; and the fused merge kernel is held equal to the
//! read-then-merge pair it replaces.

mod common;

use c4cam::arch::{ArchSpec, Optimization};
use c4cam::camsim::subarray::SearchResult;
use c4cam::camsim::CamMachine;
use c4cam::compiler::dialects::{cim, torch};
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::datasets::{Dataset, DatasetTask, DatasetWorkload};
use c4cam::driver::build_arch;
use c4cam::engine::{Tape, Unspecialised};
use c4cam::hal::{BackendRegistry, ExecOptions};
use c4cam::ir::Module;
use c4cam::runtime::kernels::{merge_partial_rows, merge_search_result, read_tensors_into};
use c4cam::runtime::Value;
use c4cam::telemetry::Telemetry;
use c4cam::tensor::Tensor;
use c4cam::workloads::{
    ArgOrder, DtreeWorkload, GpuComparisonWorkload, HdcWorkload, KnnWorkload, Workload,
};
use proptest::prelude::*;

const OPTIMIZATIONS: [Optimization; 4] = [
    Optimization::Base,
    Optimization::Power,
    Optimization::Density,
    Optimization::PowerDensity,
];

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn random_binary(rows: usize, cols: usize, next: &mut impl FnMut() -> u64) -> Tensor {
    random_levels(rows, cols, 1, next)
}

/// Random cell levels in `0..2^bits`.
fn random_levels(rows: usize, cols: usize, bits: u32, next: &mut impl FnMut() -> u64) -> Tensor {
    let mask = (1u64 << bits) - 1;
    Tensor::from_vec(
        vec![rows, cols],
        (0..rows * cols).map(|_| (next() & mask) as f32).collect(),
    )
    .unwrap()
}

/// Compile for `spec` (keeping the query body as loops when `looped`),
/// run the walker oracle, then every registered backend (sequential
/// and, where supported, sharded) and a record-then-replay of the tape,
/// and assert the equivalence contract. Returns the tape the recording
/// ran.
fn check_engines(m: Module, func: &str, spec: &ArchSpec, args: &[Value], looped: bool) -> Tape {
    let mut compiled = C4camPipeline::new(spec.clone()).compile(m).unwrap();
    if looped {
        common::keep_query_loops(&mut compiled.module, func);
    }

    let registry = BackendRegistry::global();
    let oracle = registry
        .get("walk")
        .unwrap()
        .compile(&compiled.module, func, spec)
        .unwrap()
        .execute(args, &ExecOptions::sequential())
        .unwrap();

    let assert_outputs_match = |got: &[Value], what: &str| {
        assert_eq!(oracle.outputs.len(), got.len(), "{what}");
        for (w, t) in oracle.outputs.iter().zip(got) {
            assert_eq!(
                w.snapshot_tensor().unwrap().data(),
                t.snapshot_tensor().unwrap().data(),
                "{what} output diverged"
            );
        }
    };

    // The recorder observes a tape run without perturbing it, and its
    // trace replays to the walker's outputs and statistics.
    let tape = Tape::compile(&compiled.module, func).unwrap();
    let mut recording = CamMachine::new(spec);
    let (recorded, trace) = tape.run_traced(&mut recording, args).unwrap();
    assert_outputs_match(&recorded, "recording run");
    assert_eq!(oracle.stats, recording.stats(), "recording run stats");
    let mut fresh = CamMachine::new(spec);
    let replayed = trace.replay(&mut fresh).unwrap();
    assert_outputs_match(&replayed, "replay");
    assert_eq!(oracle.stats, fresh.stats(), "replay stats diverged");

    for backend in registry.all() {
        let name = backend.name();
        let plan = backend.compile(&compiled.module, func, spec).unwrap();
        let exec = plan.execute(args, &ExecOptions::sequential()).unwrap();
        assert_outputs_match(&exec.outputs, name);
        assert_eq!(oracle.stats, exec.stats, "{name} stats diverged");

        if !backend.supports_threads() {
            continue;
        }
        let sharded = plan
            .execute(args, &ExecOptions::sequential().with_threads(3))
            .unwrap();
        assert_outputs_match(&sharded.outputs, &format!("{name} sharded"));
        // A fault-free execution reports its priced schedule: the
        // sequential figures, whatever the thread count.
        assert_eq!(exec.stats, sharded.stats, "{name} sharded stats");
        assert_eq!(exec.phases, sharded.phases, "{name} sharded phases");
    }
    tape
}

/// Every shipped workload, at two or more queries and at one, under
/// all four optimisations: the query body specialises. A silent
/// bail-out is a failure here, not a perf cliff.
#[test]
fn every_shipped_workload_specialises_or_says_why_not() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data/mini-mnist");
    let dataset = Dataset::load(&fixture, None).expect("committed fixture");
    let on_dataset = |task, queries| {
        Box::new(DatasetWorkload::new(dataset.clone(), task, Some(queries)).unwrap())
            as Box<dyn Workload>
    };
    let hdc = |queries| HdcWorkload {
        classes: 4,
        dims: 100,
        queries,
        flip_rate: 0.1,
        seed: 1,
    };
    let knn = |queries| KnnWorkload {
        patterns: 20,
        dims: 100,
        queries,
        k: 3,
        noise: 0.2,
        seed: 1,
    };
    let table: Vec<(Box<dyn Workload>, Result<(), Unspecialised>)> = vec![
        (Box::new(hdc(2)), Ok(())),
        (Box::new(hdc(1)), Ok(())),
        (Box::new(knn(3)), Ok(())),
        (Box::new(knn(1)), Ok(())),
        (Box::new(DtreeWorkload::new(8, 3, 3, 4, 1)), Ok(())),
        (Box::new(DtreeWorkload::new(8, 3, 3, 1, 1)), Ok(())),
        (Box::new(GpuComparisonWorkload::paper(2)), Ok(())),
        (Box::new(GpuComparisonWorkload::paper(1)), Ok(())),
        (on_dataset(DatasetTask::Hdc, 2), Ok(())),
        (on_dataset(DatasetTask::Knn, 2), Ok(())),
        (on_dataset(DatasetTask::Hdc, 1), Ok(())),
        (on_dataset(DatasetTask::Knn, 1), Ok(())),
    ];
    for (workload, want) in &table {
        for opt in OPTIMIZATIONS {
            let spec = build_arch((32, 32), (2, 2, 4), opt, 1).unwrap();
            let built = workload.build_module(&spec);
            let lowered = C4camPipeline::new(spec).compile(built.module).unwrap();
            let tape = Tape::compile(&lowered.module, built.func).unwrap();
            assert_eq!(
                tape.specialised(),
                *want,
                "{} at {} queries under {opt:?}",
                workload.name(),
                workload.query_count()
            );
        }
    }
}

/// The blocked order answers as the per-query order does, bit for bit.
/// Every shipped workload, as shipped and with twinned rows, at 1, 2
/// and 4 bits per cell, runs through `run_batched` on a functional
/// machine (the blocked order) at one and two threads, and through
/// `Tape::run` on a charging machine (the per-query order).
#[test]
fn the_blocked_order_answers_as_the_per_query_order_does() {
    let twinned = common::shipped_workloads()
        .into_iter()
        .map(|w| Box::new(common::Twinned(w)) as Box<dyn Workload>);
    let telemetry = Telemetry::default();
    for workload in common::shipped_workloads().into_iter().chain(twinned) {
        for bits in [1, 2, 4] {
            let spec = build_arch((16, 16), (4, 4, 8), Optimization::Base, bits).unwrap();
            let built = workload.build_module(&spec);
            let lowered = C4camPipeline::new(spec.clone())
                .compile(built.module)
                .unwrap();
            let tape = Tape::compile(&lowered.module, built.func).unwrap();
            let what = format!("{} at {bits} bits", workload.name());
            assert_eq!(tape.blocked(), Ok(()), "{what}");
            let inputs = workload.inputs(&spec);
            let (q, st) = (Value::Tensor(inputs.queries), Value::Tensor(inputs.stored));
            let args = match built.arg_order {
                ArgOrder::QueriesThenStored => [q, st],
                ArgOrder::StoredThenQueries => [st, q],
            };
            let per_query = tape.run(&mut CamMachine::new(&spec), &args).unwrap();
            for threads in [1, 2] {
                let mut functional = CamMachine::functional(&spec);
                let blocked = tape
                    .run_batched(&mut functional, &args, threads, &telemetry)
                    .unwrap();
                assert_eq!(per_query.len(), blocked.len(), "{what}");
                for (a, b) in per_query.iter().zip(&blocked) {
                    let bits = |v: &Value| {
                        let t = v.snapshot_tensor().unwrap();
                        t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(a), bits(b), "{what} at {threads} threads");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn specialised_and_looped_tapes_agree_with_the_walker_over_the_mapping_grid(
        knn in prop_oneof![Just(false), Just(true)],
        opt in prop_oneof![
            Just(Optimization::Base),
            Just(Optimization::Power),
            Just(Optimization::Density),
            Just(Optimization::PowerDensity),
        ],
        bits in prop_oneof![Just(1u32), Just(2)],
        n in prop_oneof![Just(16usize), Just(32), Just(64)],
        full_chunks in 0usize..3,
        tail in 1usize..16,
        nq in prop_oneof![Just(1usize), Just(2), Just(7)],
        looped in prop_oneof![Just(false), Just(true)],
        rows in 3usize..40,
        seed in 0u64..1000,
    ) {
        // Never a multiple of the columns: the last chunk's query
        // window overruns the tensor and is zero-padded.
        let dims = full_chunks * n + tail;
        let mut next = xorshift(seed);
        let stored = random_levels(rows, dims, bits, &mut next);
        let queries = random_levels(nq, dims, bits, &mut next);
        let mut m = Module::new();
        let (func, args) = if knn {
            cim::build_similarity_kernel(
                &mut m, "knn", "eucl",
                rows as i64, dims as i64, nq as i64, 2, false,
            );
            ("knn", [Value::Tensor(stored), Value::Tensor(queries)])
        } else {
            torch::build_hdc_dot_with(&mut m, nq as i64, rows as i64, dims as i64, 1, true);
            ("forward", [Value::Tensor(queries), Value::Tensor(stored)])
        };
        let spec = build_arch((n, n), (2, 2, 4), opt, bits).unwrap();
        let tape = check_engines(m, func, &spec, &args, looped);
        let want = if looped { Err(Unspecialised::IvEscapes) } else { Ok(()) };
        prop_assert_eq!(tape.specialised(), want);
    }

    #[test]
    fn fused_merge_equals_read_then_merge(
        rows in proptest::collection::vec(0usize..48, 0..12),
        declared in 0usize..16,
        q in 0usize..4,
        offset in -8i64..24,
        cols in 1usize..48,
        seed in 0u64..1000,
    ) {
        // Short reads (fewer rows than declared), truncated ones (more),
        // out-of-range rows and columns: both paths must leave the same
        // accumulator and the same verdict.
        let mut next = xorshift(seed);
        let result = SearchResult {
            distances: rows.iter().map(|_| (next() % 1000) as f64 / 7.0).collect(),
            matched: vec![false; rows.len()],
            rows,
        };
        let acc = Tensor::from_vec(
            vec![3, cols],
            (0..3 * cols).map(|_| (next() % 100) as f32 / 3.0).collect(),
        )
        .unwrap();

        let (mut two_step, mut fused) = (acc.clone(), acc);
        let mut vals = Tensor::zeros(vec![declared]);
        let mut idx = Tensor::zeros(vec![declared]);
        read_tensors_into(&result, &mut vals, &mut idx).unwrap();
        let want = merge_partial_rows(&mut two_step, &vals, &idx, q, offset);
        let got = merge_search_result(&mut fused, &result, declared, q, offset);
        prop_assert_eq!(got, want);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fused), bits(&two_step));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hdc_shaped_modules_execute_identically(
        classes in 2usize..7,
        dims_factor in 1usize..10,
        nq in 1usize..5,
        n in prop_oneof![Just(16usize), Just(32)],
        opt in prop_oneof![
            Just(Optimization::Base),
            Just(Optimization::Power),
            Just(Optimization::Density),
            Just(Optimization::PowerDensity),
        ],
        seed in 0u64..1000,
    ) {
        let dims = dims_factor * 19; // non-divisible sizes welcome
        let mut m = Module::new();
        torch::build_hdc_dot_with(&mut m, nq as i64, classes as i64, dims as i64, 1, true);
        let mut next = xorshift(seed);
        let stored = random_binary(classes, dims, &mut next);
        let queries = random_binary(nq, dims, &mut next);
        let args = [Value::Tensor(queries), Value::Tensor(stored)];
        let spec = ArchSpec::builder()
            .subarray(n, n)
            .hierarchy(2, 2, 4)
            .optimization(opt)
            .build()
            .unwrap();
        check_engines(m, "forward", &spec, &args, false);
    }

    #[test]
    fn knn_shaped_modules_execute_identically(
        patterns in 4usize..50,
        dims_factor in 1usize..6,
        nq in 1usize..5,
        k in 1usize..4,
        seed in 0u64..1000,
    ) {
        let dims = dims_factor * 23;
        let k = k.min(patterns);
        let mut m = Module::new();
        cim::build_similarity_kernel(
            &mut m, "knn", "eucl",
            patterns as i64, dims as i64, nq as i64, k as i64, false,
        );
        let mut next = xorshift(seed);
        let stored = random_binary(patterns, dims, &mut next);
        let queries = random_binary(nq, dims, &mut next);
        let args = [Value::Tensor(stored), Value::Tensor(queries)];
        let spec = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .build()
            .unwrap();
        check_engines(m, "knn", &spec, &args, false);
    }
}
