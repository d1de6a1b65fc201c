//! Helpers shared by the integration tests. Each test crate uses part
//! of them.
#![allow(dead_code)]

use c4cam::arch::ArchSpec;
use c4cam::ir::builder::OpBuilder;
use c4cam::ir::Module;
use c4cam::workloads::{HdcWorkload, KnnWorkload, Workload, WorkloadInputs, WorkloadModule};

/// Make the tape's specialisation pass leave `func`'s query body as the
/// loops the mapped module spelled (`Unspecialised::IvEscapes`): a dead
/// `arith.addi %iv, %iv` at the head of the query loop — the function's
/// one top-level `scf.for` — which changes nothing the module computes
/// or charges.
pub fn keep_query_loops(m: &mut Module, func: &str) {
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
    let ty = b.module().index_ty();
    b.op("arith.addi", &[iv, iv], &[ty], vec![]);
}

/// A 4-class, 128-dimension HDC workload of four queries.
pub fn small_hdc() -> HdcWorkload {
    HdcWorkload {
        classes: 4,
        dims: 128,
        queries: 4,
        flip_rate: 0.1,
        seed: 42,
    }
}

/// Every shipped workload kind, small: the ones a sweep may run.
pub fn shipped_workloads() -> Vec<Box<dyn Workload>> {
    use c4cam::datasets::{mini_mnist, DatasetTask, DatasetWorkload};
    use c4cam::workloads::{DtreeWorkload, GpuComparisonWorkload};
    let knn = KnnWorkload {
        patterns: 24,
        dims: 96,
        queries: 3,
        k: 1,
        noise: 0.1,
        seed: 3,
    };
    let on_dataset =
        |task| DatasetWorkload::new(mini_mnist::dataset(), task, Some(3)).expect("fixture");
    vec![
        Box::new(small_hdc()),
        Box::new(knn),
        Box::new(DtreeWorkload::new(8, 3, 3, 4, 1)),
        Box::new(GpuComparisonWorkload::paper(2)),
        Box::new(on_dataset(DatasetTask::Hdc)),
        Box::new(on_dataset(DatasetTask::Knn)),
    ]
}

/// A workload whose stored rows come in identical pairs: row `2i + 1`
/// repeats row `2i`. Every query's best match is then tied with its
/// twin, and the lower index, always an even one, must win.
pub struct Twinned(pub Box<dyn Workload>);

impl Workload for Twinned {
    fn name(&self) -> &'static str {
        self.0.name()
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
        let mut inputs = self.0.inputs(spec);
        let dims = inputs.stored.shape()[1];
        for pair in inputs.stored.data_mut().chunks_exact_mut(2 * dims) {
            let (first, second) = pair.split_at_mut(dims);
            second.copy_from_slice(first);
        }
        inputs
    }
}
