//! End-to-end equivalence: every lowering stage must compute the same
//! function. The torch-level host execution is the golden reference;
//! the cim stage, the partitioned host-loops stage, and the fully
//! lowered cam stage (on the simulator) must agree.
//!
//! The fully lowered stage is additionally executed by *both* device
//! engines — the tree-walking `Executor` (oracle) and the flat-tape VM,
//! sequential and sharded — and the engines must agree bit-for-bit on
//! outputs and (for the sequential tape) on energy/latency statistics,
//! across all four workload shapes: hdc, knn, dtree, and gpu.

use c4cam::arch::{ArchSpec, Optimization};
use c4cam::camsim::CamMachine;
use c4cam::compiler::dialects::torch;
use c4cam::compiler::pipeline::{C4camPipeline, PipelineOptions, Target};
use c4cam::engine::Tape;
use c4cam::ir::Module;
use c4cam::runtime::{Executor, Value};
use c4cam::telemetry::Telemetry;
use c4cam::tensor::Tensor;

/// Run the lowered device module on the walker (oracle), the sequential
/// tape engine, and the sharded tape engine; assert the tape matches the
/// walker bit-for-bit (outputs *and* stats) and the sharded run matches
/// outputs exactly with equal op counts.
fn assert_engines_agree(
    module: &Module,
    spec: &ArchSpec,
    func: &str,
    args: &[Value],
) -> Vec<Value> {
    let mut walk_machine = CamMachine::new(spec);
    let walk_out = Executor::with_machine(module, &mut walk_machine)
        .run(func, args)
        .unwrap();

    let tape = Tape::compile(module, func).unwrap();
    let mut tape_machine = CamMachine::new(spec);
    let tape_out = tape.run(&mut tape_machine, args).unwrap();

    assert_eq!(walk_out.len(), tape_out.len(), "engine result arity");
    for (i, (w, t)) in walk_out.iter().zip(&tape_out).enumerate() {
        assert_eq!(
            w.snapshot_tensor().unwrap().data(),
            t.snapshot_tensor().unwrap().data(),
            "tape result {i} diverged from walker"
        );
    }
    assert_eq!(
        walk_machine.stats(),
        tape_machine.stats(),
        "tape stats diverged from walker"
    );

    let mut shard_machine = CamMachine::new(spec);
    let shard_out = tape
        .run_batched(&mut shard_machine, args, 4, &Telemetry::default())
        .unwrap();
    for (i, (w, s)) in walk_out.iter().zip(&shard_out).enumerate() {
        assert_eq!(
            w.snapshot_tensor().unwrap().data(),
            s.snapshot_tensor().unwrap().data(),
            "sharded result {i} diverged from walker"
        );
    }
    let (walk, shard) = (walk_machine.stats(), shard_machine.stats());
    assert_eq!(walk.search_ops, shard.search_ops);
    assert_eq!(walk.read_ops, shard.read_ops);
    assert_eq!(walk.merge_ops, shard.merge_ops);
    assert!(
        (walk.latency_ns - shard.latency_ns).abs() <= 1e-6 * walk.latency_ns.max(1.0),
        "sharded latency diverged: {} vs {}",
        walk.latency_ns,
        shard.latency_ns
    );
    walk_out
}

fn hdc_inputs(nq: usize, classes: usize, dims: usize, seed: u64) -> (Tensor, Tensor) {
    let mut stored = Vec::with_capacity(classes * dims);
    for c in 0..classes {
        for d in 0..dims {
            let h = (c as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((d as u64).wrapping_mul(seed | 1));
            stored.push(f32::from(u8::from(h % 7 < 3)));
        }
    }
    let mut queries = Vec::with_capacity(nq * dims);
    for q in 0..nq {
        let class = q % classes;
        for d in 0..dims {
            let h = (class as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((d as u64).wrapping_mul(seed | 1));
            let base = u8::from(h % 7 < 3);
            let flip = u8::from(d % 53 == q); // a little per-query noise
            queries.push(f32::from(base ^ flip));
        }
    }
    (
        Tensor::from_vec(vec![classes, dims], stored).unwrap(),
        Tensor::from_vec(vec![nq, dims], queries).unwrap(),
    )
}

fn spec(n: usize, opt: Optimization) -> ArchSpec {
    ArchSpec::builder()
        .subarray(n, n)
        .hierarchy(2, 2, 4)
        .optimization(opt)
        .build()
        .unwrap()
}

fn run_all_stages(nq: usize, classes: usize, dims: usize, opt: Optimization, n: usize) {
    let mut m = Module::new();
    torch::build_hdc_dot_with(&mut m, nq as i64, classes as i64, dims as i64, 1, true);
    let (stored, queries) = hdc_inputs(nq, classes, dims, 11);
    let args = [Value::Tensor(queries), Value::Tensor(stored)];

    // Golden: torch level on the host.
    let golden = Executor::new(&m).run("forward", &args).unwrap();
    let golden_idx = golden[1].as_tensor().unwrap().clone();

    // Host loops path (partitioned cim).
    let host = C4camPipeline::new(spec(n, opt))
        .with_options(PipelineOptions {
            target: Target::HostLoops,
            ..PipelineOptions::default()
        })
        .compile(m.clone())
        .unwrap();
    let host_out = Executor::new(&host.module).run("forward", &args).unwrap();
    assert_eq!(
        host_out[1].as_tensor().unwrap().data(),
        golden_idx.data(),
        "host-loops path diverged (N={n}, {opt:?})"
    );

    // Device path: walker, tape and sharded tape must all agree.
    let s = spec(n, opt);
    let device = C4camPipeline::new(s.clone()).compile(m).unwrap();
    let device_out = assert_engines_agree(&device.module, &s, "forward", &args);
    assert_eq!(
        device_out[1].as_tensor().unwrap().data(),
        golden_idx.data(),
        "device path diverged (N={n}, {opt:?})"
    );
}

#[test]
fn hdc_equivalence_base_config() {
    run_all_stages(3, 5, 256, Optimization::Base, 16);
}

#[test]
fn hdc_equivalence_across_subarray_sizes() {
    for n in [16, 32, 64] {
        run_all_stages(2, 4, 128, Optimization::Base, n);
    }
}

#[test]
fn hdc_equivalence_power_config() {
    run_all_stages(3, 5, 256, Optimization::Power, 16);
}

#[test]
fn hdc_equivalence_density_config() {
    // density packs 3 batches per 16-row subarray for 5 stored rows.
    run_all_stages(3, 5, 256, Optimization::Density, 16);
}

#[test]
fn hdc_equivalence_power_density_config() {
    run_all_stages(3, 5, 256, Optimization::PowerDensity, 16);
}

#[test]
fn hdc_equivalence_non_divisible_dims() {
    // 200 dims on 16-col subarrays → 13 chunks with a ragged tail.
    run_all_stages(2, 4, 200, Optimization::Base, 16);
    run_all_stages(2, 4, 200, Optimization::Density, 16);
}

#[test]
fn knn_equivalence_with_row_groups() {
    // 50 stored rows on 16-row subarrays → 4 row groups.
    let mut m = Module::new();
    c4cam::compiler::dialects::cim::build_similarity_kernel(
        &mut m, "knn", "eucl", 50, 96, 3, 2, false,
    );
    let mut stored = Vec::new();
    for p in 0..50 {
        for d in 0..96 {
            stored.push(f32::from(u8::from((d * 5 + p * 11) % 7 < 3)));
        }
    }
    let stored = Tensor::from_vec(vec![50, 96], stored).unwrap();
    let queries = stored.slice2d(10, 0, 3, 96).unwrap();
    let args = [Value::Tensor(stored), Value::Tensor(queries)];

    let golden = Executor::new(&m).run("knn", &args).unwrap();

    let s = spec(16, Optimization::Base);
    let device = C4camPipeline::new(s.clone()).compile(m).unwrap();
    let out = assert_engines_agree(&device.module, &s, "knn", &args);
    assert_eq!(
        out[1].as_tensor().unwrap().data(),
        golden[1].as_tensor().unwrap().data(),
        "KNN indices diverged"
    );
    // Euclidean distances are exact across the stack.
    let g = golden[0].as_tensor().unwrap().data();
    let d = out[0].as_tensor().unwrap().data();
    for (a, b) in g.iter().zip(d) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}

#[test]
fn wta_window_preserves_results_when_wide_enough() {
    let mut m = Module::new();
    torch::build_hdc_dot_with(&mut m, 2, 4, 128, 1, true);
    let (stored, queries) = hdc_inputs(2, 4, 128, 5);
    let args = [Value::Tensor(queries), Value::Tensor(stored)];
    let golden = Executor::new(&m).run("forward", &args).unwrap();

    let s = spec(16, Optimization::Base);
    let compiled = C4camPipeline::new(s.clone()).compile(m).unwrap();
    // A window as wide as the subarray cannot saturate anything.
    let mut machine = CamMachine::new(&s);
    machine.set_wta_window(Some(16));
    let out = Executor::with_machine(&compiled.module, &mut machine)
        .run("forward", &args)
        .unwrap();
    assert_eq!(
        out[1].as_tensor().unwrap().data(),
        golden[1].as_tensor().unwrap().data()
    );
}

#[test]
fn dtree_workload_engines_agree() {
    // The decision-tree workload ([`DtreeWorkload`]), expressed as
    // nearest-path-row retrieval: each root-to-leaf path becomes a
    // stored row of interval midpoints (don't-care features sit at the
    // domain center), and a sample classifies by minimum Euclidean
    // distance. Features are quantized to the 2-bit MCAM level grid so
    // the host reference and the (exact multi-bit Euclidean) device
    // agree. This exercises the eucl metric, multi-bit cells, and k=1
    // reduction through both engines.
    use c4cam::workloads::{DtreeWorkload, Workload};
    let s = ArchSpec::builder()
        .subarray(16, 16)
        .hierarchy(2, 2, 4)
        .bits_per_cell(2)
        .cam_kind(c4cam::arch::CamKind::Mcam)
        .build()
        .unwrap();
    let workload = DtreeWorkload::new(8, 3, 4, 5, 77);
    let built = workload.build_module(&s);
    let inputs = workload.inputs(&s);
    let args = [Value::Tensor(inputs.stored), Value::Tensor(inputs.queries)];
    let golden = Executor::new(&built.module).run("dtree", &args).unwrap();
    // The host golden's top-1 is exactly the workload's ground truth.
    let golden_idx: Vec<usize> = golden[1]
        .as_tensor()
        .unwrap()
        .data()
        .iter()
        .map(|&v| v as usize)
        .collect();
    assert_eq!(golden_idx, inputs.labels, "labels must match CPU golden");

    let device = C4camPipeline::new(s.clone())
        .compile(built.module.clone())
        .unwrap();
    let out = assert_engines_agree(&device.module, &s, "dtree", &args);
    assert_eq!(
        out[1].as_tensor().unwrap().data(),
        golden[1].as_tensor().unwrap().data(),
        "dtree indices diverged"
    );
}

#[test]
fn gpu_workload_engines_agree() {
    // The GPU-comparison workload shape (§IV-B,
    // [`GpuComparisonWorkload`]): the paper's 10-class HDC classifier
    // with largest-dot selection, scaled down in dims.
    use c4cam::workloads::{GpuComparisonWorkload, HdcWorkload, Workload};
    let s = spec(32, Optimization::Base);
    let workload = GpuComparisonWorkload {
        hdc: HdcWorkload {
            classes: 10,
            dims: 512,
            queries: 6,
            flip_rate: 0.1,
            seed: 42,
        },
        gpu: c4cam::workloads::GpuModel::rtx6000(),
    };
    let built = workload.build_module(&s);
    let inputs = workload.inputs(&s);
    // HDC-shaped torch kernels take (queries, stored).
    let args = [Value::Tensor(inputs.queries), Value::Tensor(inputs.stored)];
    let golden = Executor::new(&built.module).run("forward", &args).unwrap();

    let device = C4camPipeline::new(s.clone())
        .compile(built.module.clone())
        .unwrap();
    let out = assert_engines_agree(&device.module, &s, "forward", &args);
    assert_eq!(
        out[1].as_tensor().unwrap().data(),
        golden[1].as_tensor().unwrap().data(),
        "gpu-workload indices diverged"
    );
}

#[test]
fn dataset_workload_engines_agree_on_the_fixture() {
    // Real data through the full stack: the committed mini-MNIST
    // fixture, adapted by `DatasetWorkload`, must classify identically
    // on the walker, the sequential tape, and the sharded tape — and
    // the CAM result must equal the CPU reference classifier row for
    // row (the reductions are exact over the integer level grid, so
    // agreement is exact, not approximate).
    use c4cam::datasets::{Dataset, DatasetTask, DatasetWorkload};
    use c4cam::workloads::{nearest_rows_cpu, Workload};
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data/mini-mnist");
    let dataset = Dataset::load(&fixture, None).unwrap();
    for (task, bits) in [
        (DatasetTask::Hdc, 1u32),
        (DatasetTask::Hdc, 2),
        (DatasetTask::Knn, 2),
    ] {
        let s = ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .bits_per_cell(bits)
            .cam_kind(if bits > 1 {
                c4cam::arch::CamKind::Mcam
            } else {
                c4cam::arch::CamKind::Tcam
            })
            .build()
            .unwrap();
        let workload = DatasetWorkload::new(dataset.clone(), task, Some(10)).unwrap();
        let built = workload.build_module(&s);
        let inputs = workload.inputs(&s);
        let cpu = nearest_rows_cpu(&inputs.stored, &inputs.queries);
        let args = [Value::Tensor(inputs.stored), Value::Tensor(inputs.queries)];

        let device = C4camPipeline::new(s.clone())
            .compile(built.module.clone())
            .unwrap();
        let out = assert_engines_agree(&device.module, &s, built.func, &args);
        let device_idx: Vec<usize> = out[1]
            .as_tensor()
            .unwrap()
            .data()
            .iter()
            .map(|&v| v as usize)
            .collect();
        assert_eq!(
            device_idx, cpu,
            "{task:?}/{bits}b: CAM must equal the CPU reference"
        );
    }
}

#[test]
fn multibit_mcam_equivalence() {
    let s = ArchSpec::builder()
        .subarray(16, 16)
        .hierarchy(2, 2, 4)
        .bits_per_cell(2)
        .cam_kind(c4cam::arch::CamKind::Mcam)
        .build()
        .unwrap();
    let mut m = Module::new();
    torch::build_hdc_dot_with(&mut m, 2, 4, 128, 1, true);
    // Multi-bit patterns: levels 0..=3.
    let mut stored = Vec::new();
    for c in 0..4 {
        for d in 0..128 {
            stored.push(((d * 3 + c * 5) % 4) as f32);
        }
    }
    let stored = Tensor::from_vec(vec![4, 128], stored).unwrap();
    let queries = stored.slice2d(1, 0, 2, 128).unwrap();
    let args = [Value::Tensor(queries), Value::Tensor(stored)];
    let golden = Executor::new(&m).run("forward", &args).unwrap();
    let device = C4camPipeline::new(s.clone()).compile(m).unwrap();
    let mut machine = CamMachine::new(&s);
    let out = Executor::with_machine(&device.module, &mut machine)
        .run("forward", &args)
        .unwrap();
    assert_eq!(
        out[1].as_tensor().unwrap().data(),
        golden[1].as_tensor().unwrap().data()
    );
}
