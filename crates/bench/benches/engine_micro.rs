//! **Engine microbenchmark** — tree-walking interpreter vs flat-tape VM
//! vs sharded tape on the same lowered module.
//!
//! The ROADMAP's "interpreter performance" item: the walker re-walks IR
//! per op (string dispatch, per-op hash lookups, per-block op-vector
//! clones), while the tape executes pre-resolved instructions over dense
//! slots. Shape requirement: the single-thread tape beats the walker by
//! ≥ 2× on a ≥ 1k-query batch; sharding adds wall-clock speedup on top.

use c4cam::arch::ArchSpec;
use c4cam::camsim::CamMachine;
use c4cam::compiler::dialects::torch;
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::engine::Tape;
use c4cam::ir::Module;
use c4cam::runtime::{Executor, Value};
use c4cam::telemetry::Telemetry;
use c4cam::tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};

const QUERIES: usize = 1024;
const CLASSES: usize = 8;
const DIMS: usize = 256;

fn inputs() -> (Tensor, Tensor) {
    let mut stored = Vec::with_capacity(CLASSES * DIMS);
    for c in 0..CLASSES {
        for d in 0..DIMS {
            stored.push(f32::from(u8::from((d * 7 + c * 3) % 5 < 2)));
        }
    }
    let mut queries = Vec::with_capacity(QUERIES * DIMS);
    for q in 0..QUERIES {
        let class = q % CLASSES;
        for d in 0..DIMS {
            let base = u8::from((d * 7 + class * 3) % 5 < 2);
            let flip = u8::from(d % 89 == q % 89 && d % 7 == 0);
            queries.push(f32::from(base ^ flip));
        }
    }
    (
        Tensor::from_vec(vec![CLASSES, DIMS], stored).unwrap(),
        Tensor::from_vec(vec![QUERIES, DIMS], queries).unwrap(),
    )
}

fn engine_micro(c: &mut Criterion) {
    let spec = ArchSpec::builder()
        .subarray(16, 16)
        .hierarchy(2, 2, 4)
        .build()
        .unwrap();
    let mut m = Module::new();
    torch::build_hdc_dot_with(&mut m, QUERIES as i64, CLASSES as i64, DIMS as i64, 1, true);
    let compiled = C4camPipeline::new(spec.clone()).compile(m).unwrap();
    let (stored, queries) = inputs();
    let args = [Value::Tensor(queries), Value::Tensor(stored)];
    let tape = Tape::compile(&compiled.module, "forward").unwrap();
    // At least two shards so the batched path is exercised even on
    // single-core hosts (where it degenerates to sequential + merge).
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .max(2);

    // Correctness cross-check before timing anything.
    let mut walk_machine = CamMachine::new(&spec);
    let walk_out = Executor::with_machine(&compiled.module, &mut walk_machine)
        .run("forward", &args)
        .unwrap();
    let mut tape_machine = CamMachine::new(&spec);
    let tape_out = tape.run(&mut tape_machine, &args).unwrap();
    assert_eq!(
        walk_out[1].snapshot_tensor().unwrap().data(),
        tape_out[1].snapshot_tensor().unwrap().data(),
    );
    assert_eq!(walk_machine.stats(), tape_machine.stats());

    let mut g = c.benchmark_group("engine_micro");
    g.bench_function(format!("walk/{QUERIES}q"), |b| {
        b.iter(|| {
            let mut machine = CamMachine::new(&spec);
            Executor::with_machine(&compiled.module, &mut machine)
                .run("forward", &args)
                .unwrap()
        });
    });
    g.bench_function(format!("tape/{QUERIES}q"), |b| {
        b.iter(|| {
            let mut machine = CamMachine::new(&spec);
            tape.run(&mut machine, &args).unwrap()
        });
    });
    g.bench_function(format!("tape-sharded/{QUERIES}q/{threads}t"), |b| {
        b.iter(|| {
            let mut machine = CamMachine::new(&spec);
            tape.run_batched(&mut machine, &args, threads, &Telemetry::default())
                .unwrap()
        });
    });
    g.bench_function("tape-compile", |b| {
        b.iter(|| Tape::compile(&compiled.module, "forward").unwrap());
    });
    g.finish();
}

criterion_group!(benches, engine_micro);
criterion_main!(benches);
