//! Property tests (vendored proptest): for randomly shaped hdc- and
//! knn-style modules, EVERY backend registered in the HAL must produce
//! bit-identical results and identical energy/latency statistics to
//! the tree-walking interpreter, and every thread-capable backend must
//! reproduce the outputs exactly when the query loop is sharded. The
//! tape's recorder is held to the same contract: a `Tape::run_traced`
//! recording replayed on a fresh machine equals the walker.

use c4cam::arch::{ArchSpec, Optimization};
use c4cam::camsim::CamMachine;
use c4cam::compiler::dialects::{cim, torch};
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::engine::Tape;
use c4cam::hal::{BackendRegistry, ExecOptions};
use c4cam::ir::Module;
use c4cam::runtime::Value;
use c4cam::tensor::Tensor;
use proptest::prelude::*;

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
    Tensor::from_vec(
        vec![rows, cols],
        (0..rows * cols).map(|_| (next() & 1) as f32).collect(),
    )
    .unwrap()
}

/// Compile for `spec`, run the walker oracle, then every registered
/// backend (sequential and, where supported, sharded) and a
/// record-then-replay of the tape, and assert the equivalence contract.
fn check_engines(m: Module, func: &str, spec: &ArchSpec, args: &[Value]) {
    let compiled = C4camPipeline::new(spec.clone()).compile(m).unwrap();

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
        let (a, b) = (&exec.stats, &sharded.stats);
        assert_eq!(a.search_ops, b.search_ops, "{name}");
        assert_eq!(a.read_ops, b.read_ops, "{name}");
        assert_eq!(a.merge_ops, b.merge_ops, "{name}");
        assert_eq!(a.write_ops, b.write_ops, "{name}");
        assert!(
            (a.latency_ns - b.latency_ns).abs() <= 1e-6 * a.latency_ns.max(1.0),
            "{name}"
        );
        assert!(
            (a.total_energy_fj() - b.total_energy_fj()).abs()
                <= 1e-6 * a.total_energy_fj().max(1.0),
            "{name}"
        );
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
        check_engines(m, "forward", &spec, &args);
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
        check_engines(m, "knn", &spec, &args);
    }
}
