//! **Search microbenchmark** — packed match planes vs the naive
//! per-cell kernel on search-dominated batches (the PR 3 tentpole).
//!
//! Both engines run the same flat tape on the same machine; only the
//! subarray search kernel differs ([`SearchPath::Packed`] vs
//! [`SearchPath::Naive`], the pre-packing implementation that every
//! earlier baseline used). Outputs and cost statistics are
//! bit-identical — the packed kernel is a pure simulator-performance
//! optimization. Shape requirement: packed beats naive by ≥ 3× on the
//! 1k-query kNN batch.
//!
//! `knn` is the paper's Euclidean retrieval with MCAM-quantized
//! features (the exact-integer accumulation path); `hdc` is the
//! dot-metric classifier (the XOR/popcount path).

use c4cam::arch::{ArchSpec, CamKind};
use c4cam::camsim::{CamMachine, SearchPath};
use c4cam::compiler::dialects::{cim, torch};
use c4cam::compiler::pipeline::C4camPipeline;
use c4cam::engine::Tape;
use c4cam::ir::Module;
use c4cam::runtime::Value;
use c4cam::tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};

const QUERIES: usize = 1024;
const PATTERNS: usize = 256;
const DIMS: usize = 512;

/// MCAM-quantized synthetic kNN data: levels 0..=3.
fn knn_inputs() -> (Tensor, Tensor) {
    let mut stored = Vec::with_capacity(PATTERNS * DIMS);
    for p in 0..PATTERNS {
        for d in 0..DIMS {
            stored.push(((p * 7 + d * 3) % 4) as f32);
        }
    }
    let mut queries = Vec::with_capacity(QUERIES * DIMS);
    for q in 0..QUERIES {
        let base = q % PATTERNS;
        for d in 0..DIMS {
            let jitter = u8::from(d % 97 == q % 97);
            queries.push((((base * 7 + d * 3) % 4) as u8 + jitter).min(3) as f32);
        }
    }
    (
        Tensor::from_vec(vec![PATTERNS, DIMS], stored).unwrap(),
        Tensor::from_vec(vec![QUERIES, DIMS], queries).unwrap(),
    )
}

fn hdc_inputs(classes: usize, dims: usize) -> (Tensor, Tensor) {
    let mut stored = Vec::with_capacity(classes * dims);
    for c in 0..classes {
        for d in 0..dims {
            stored.push(f32::from(u8::from((d * 7 + c * 3) % 5 < 2)));
        }
    }
    let mut queries = Vec::with_capacity(QUERIES * dims);
    for q in 0..QUERIES {
        let class = q % classes;
        for d in 0..dims {
            let base = u8::from((d * 7 + class * 3) % 5 < 2);
            let flip = u8::from(d % 89 == q % 89 && d % 7 == 0);
            queries.push(f32::from(base ^ flip));
        }
    }
    (
        Tensor::from_vec(vec![classes, dims], stored).unwrap(),
        Tensor::from_vec(vec![QUERIES, dims], queries).unwrap(),
    )
}

fn search_micro(c: &mut Criterion) {
    // --- kNN: Euclidean over 2-bit MCAM cells -------------------------
    let knn_spec = ArchSpec::builder()
        .subarray(128, 128)
        .hierarchy(2, 2, 4)
        .bits_per_cell(2)
        .cam_kind(CamKind::Mcam)
        .build()
        .unwrap();
    let mut m = Module::new();
    cim::build_similarity_kernel(
        &mut m,
        "knn",
        "eucl",
        PATTERNS as i64,
        DIMS as i64,
        QUERIES as i64,
        1,
        false,
    );
    let knn = C4camPipeline::new(knn_spec.clone()).compile(m).unwrap();
    let (stored, queries) = knn_inputs();
    let knn_args = [Value::Tensor(stored), Value::Tensor(queries)];
    let knn_tape = Tape::compile(&knn.module, "knn").unwrap();

    // Correctness cross-check before timing anything: packed == naive,
    // outputs and stats.
    {
        let mut packed = CamMachine::new(&knn_spec);
        let mut naive = CamMachine::new(&knn_spec);
        naive.set_search_path(SearchPath::Naive);
        let po = knn_tape.run(&mut packed, &knn_args).unwrap();
        let no = knn_tape.run(&mut naive, &knn_args).unwrap();
        assert_eq!(
            po[1].snapshot_tensor().unwrap().data(),
            no[1].snapshot_tensor().unwrap().data(),
        );
        assert_eq!(packed.stats().latency_ns, naive.stats().latency_ns);
        assert_eq!(packed.stats().search_ops, naive.stats().search_ops);
    }

    let mut g = c.benchmark_group("search_micro");
    g.bench_function(format!("knn-packed/{QUERIES}q"), |b| {
        b.iter(|| {
            let mut machine = CamMachine::new(&knn_spec);
            knn_tape.run(&mut machine, &knn_args).unwrap()
        });
    });
    g.bench_function(format!("knn-naive/{QUERIES}q"), |b| {
        b.iter(|| {
            let mut machine = CamMachine::new(&knn_spec);
            machine.set_search_path(SearchPath::Naive);
            knn_tape.run(&mut machine, &knn_args).unwrap()
        });
    });

    // --- HDC: dot metric over TCAM bits (XOR/popcount path) -----------
    let hdc_spec = ArchSpec::builder()
        .subarray(64, 64)
        .hierarchy(2, 2, 4)
        .build()
        .unwrap();
    let mut m = Module::new();
    torch::build_hdc_dot_with(&mut m, QUERIES as i64, 64, 512, 1, true);
    let hdc = C4camPipeline::new(hdc_spec.clone()).compile(m).unwrap();
    let (stored, queries) = hdc_inputs(64, 512);
    let hdc_args = [Value::Tensor(queries), Value::Tensor(stored)];
    let hdc_tape = Tape::compile(&hdc.module, "forward").unwrap();
    g.bench_function(format!("hdc-packed/{QUERIES}q"), |b| {
        b.iter(|| {
            let mut machine = CamMachine::new(&hdc_spec);
            hdc_tape.run(&mut machine, &hdc_args).unwrap()
        });
    });
    g.bench_function(format!("hdc-naive/{QUERIES}q"), |b| {
        b.iter(|| {
            let mut machine = CamMachine::new(&hdc_spec);
            machine.set_search_path(SearchPath::Naive);
            hdc_tape.run(&mut machine, &hdc_args).unwrap()
        });
    });

    g.finish();
}

criterion_group!(benches, search_micro);
criterion_main!(benches);
