//! The unified [`Workload`] abstraction behind the experiment driver.
//!
//! The paper's headline capability — "quickly explore CAM
//! configurations" without touching application code (§IV-C) — needs a
//! single surface the driver, the CLI sweep runner, the examples and
//! the benches can all share. A [`Workload`] bundles everything that is
//! *application*: how to build the compiler-entry IR module, how to
//! generate the input tensors, and what the ground-truth labels are.
//! Everything that is *architecture* (subarray geometry, optimization
//! configuration, technology, bits per cell) stays in the
//! [`ArchSpec`] / technology model, so the same workload value can be
//! re-run across an arbitrary grid of configurations.
//!
//! Implementations cover the paper's evaluation set: [`HdcWorkload`]
//! (§IV-A3 MNIST-scale hyperdimensional classification),
//! [`KnnWorkload`] (Pneumonia-scale K-nearest-neighbour),
//! [`DtreeWorkload`] (the DT2CAM \[25\] decision-tree application class
//! as quantized nearest-path retrieval), and [`GpuComparisonWorkload`]
//! (the §IV-B GPU-comparison HDC shape, carrying its analytic GPU
//! baseline).

use crate::dtree::DecisionTree;
use crate::gpu::{GpuComparison, GpuModel};
use crate::hdc::HdcModel;
use crate::knn::KnnDataset;
use c4cam_arch::ArchSpec;
use c4cam_core::dialects::{cim, torch};
use c4cam_ir::Module;
use c4cam_tensor::Tensor;

/// Order of a workload kernel's runtime arguments. Torch-level HDC
/// kernels take `(queries, stored)`; the cim-level similarity kernels
/// take `(stored, queries)`. Declaring it here lets the driver bind
/// [`WorkloadInputs`] without shape heuristics (which are ambiguous
/// whenever `query_count == stored_rows`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgOrder {
    /// Entry function is `f(queries, stored)`.
    QueriesThenStored,
    /// Entry function is `f(stored, queries)`.
    StoredThenQueries,
}

/// A compiler-entry module plus the symbol of its entry function.
#[derive(Debug)]
pub struct WorkloadModule {
    /// The torch- or cim-level module to hand to the pipeline.
    pub module: Module,
    /// Entry function symbol (`forward`, `knn`, …).
    pub func: &'static str,
    /// Runtime argument order of `func`.
    pub arg_order: ArgOrder,
}

/// Runtime inputs of one workload instantiation.
#[derive(Debug, Clone)]
pub struct WorkloadInputs {
    /// Stored patterns (class hypervectors / training set / tree
    /// paths), `[stored_rows, dims]`.
    pub stored: Tensor,
    /// Query patterns, `[queries, dims]`.
    pub queries: Tensor,
    /// Ground-truth label (stored-row index) per query.
    pub labels: Vec<usize>,
}

impl WorkloadInputs {
    /// Host bytes the stored and query tensors hold, a storage the two
    /// share counted once.
    pub fn input_bytes(&self) -> usize {
        let bytes = |t: &Tensor| std::mem::size_of_val(t.data());
        let queries = if self.queries.shares_storage(&self.stored) {
            0
        } else {
            bytes(&self.queries)
        };
        bytes(&self.stored) + queries
    }
}

/// An experiment workload: the application side of a driver run.
///
/// The architecture is a *parameter* of every data-producing method
/// because workload data can legitimately depend on it — e.g. HDC
/// hypervectors are generated at the spec's `bits_per_cell` level
/// count, and decision-tree features quantize to the MCAM level grid.
/// Geometry accessors ([`Workload::stored_rows`], [`Workload::dims`],
/// [`Workload::query_count`]) are spec-independent so placement can be
/// planned before any data is materialized.
pub trait Workload {
    /// Short identifier used in reports (`"hdc"`, `"knn"`, …).
    fn name(&self) -> &'static str;

    /// Number of queries the workload executes.
    fn query_count(&self) -> usize;

    /// Number of stored rows (patterns/classes/paths).
    fn stored_rows(&self) -> usize;

    /// Feature dimensionality of stored and query rows.
    fn dims(&self) -> usize;

    /// Build the compiler-entry IR module for this workload. It may
    /// depend on `spec` through `bits_per_cell` only, like
    /// [`Workload::inputs`]: the sweep builds it, and lowers it through
    /// the pipeline's geometry-free prefix, once per cell width and
    /// shares the result among its grid points.
    fn build_module(&self, spec: &ArchSpec) -> WorkloadModule;

    /// Materialize the input tensors and ground-truth labels. They may
    /// depend on `spec` through `bits_per_cell` only — the level
    /// alphabet — never on geometry or mapping: the sweep materialises
    /// them once per cell width and shares them among its grid points.
    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs;

    /// Ground-truth labels alone (defaults to materializing
    /// [`Workload::inputs`]).
    fn labels(&self, spec: &ArchSpec) -> Vec<usize> {
        self.inputs(spec).labels
    }
}

/// Index of the nearest stored row (squared Euclidean distance, lowest
/// index wins ties) for every query — the CPU reference reduction the
/// CAM's best-match search implements exactly on level-quantized data.
/// Shared by [`DtreeWorkload`] and the dataset-backed workloads in
/// `c4cam_datasets`.
///
/// # Panics
/// Panics if the tensors are not both `[rows, dims]` with equal
/// `dims`, or if `stored` has no rows.
pub fn nearest_rows_cpu(stored: &Tensor, queries: &Tensor) -> Vec<usize> {
    assert!(stored.shape()[0] > 0, "no stored rows");
    (0..queries.shape()[0])
        .map(|q| {
            let qr = queries.row(q).expect("query row");
            let mut best = 0usize;
            let mut best_dist = f64::INFINITY;
            for r in 0..stored.shape()[0] {
                let row = stored.row(r).expect("stored row");
                let dist = Tensor::squared_distance(qr, row).expect("len");
                if dist < best_dist {
                    best_dist = dist;
                    best = r;
                }
            }
            best
        })
        .collect()
}

/// HDC classification (paper §IV-A3): `queries` hypervectors against
/// `classes` stored prototypes by dot-similarity, at the architecture's
/// `bits_per_cell` level count.
#[derive(Debug, Clone)]
pub struct HdcWorkload {
    /// Number of classes (stored hypervectors).
    pub classes: usize,
    /// Hypervector dimensionality.
    pub dims: usize,
    /// Queries to simulate.
    pub queries: usize,
    /// Fraction of query elements re-randomized.
    pub flip_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl HdcWorkload {
    /// The paper's HDC setting (MNIST-like, 8k dims, 10 classes) with a
    /// reduced simulated query count (the full test set is priced, not
    /// run: `CompiledExperiment::cost`).
    pub fn paper(queries: usize) -> HdcWorkload {
        HdcWorkload {
            classes: 10,
            dims: 8192,
            queries,
            flip_rate: 0.1,
            seed: 42,
        }
    }

    fn model(&self, spec: &ArchSpec) -> HdcModel {
        HdcModel::random(self.classes, self.dims, spec.bits_per_cell, self.seed)
    }
}

impl Workload for HdcWorkload {
    fn name(&self) -> &'static str {
        "hdc"
    }

    fn query_count(&self) -> usize {
        self.queries
    }

    fn stored_rows(&self) -> usize {
        self.classes
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn build_module(&self, _spec: &ArchSpec) -> WorkloadModule {
        let mut module = Module::new();
        torch::build_hdc_dot_with(
            &mut module,
            self.queries as i64,
            self.classes as i64,
            self.dims as i64,
            1,
            true,
        );
        WorkloadModule {
            module,
            func: "forward",
            arg_order: ArgOrder::QueriesThenStored,
        }
    }

    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        let model = self.model(spec);
        let (queries, labels) = model.queries(self.queries, self.flip_rate, self.seed);
        WorkloadInputs {
            stored: model.class_hvs().clone(),
            queries,
            labels,
        }
    }
}

/// KNN classification (paper §IV-A3, Pneumonia-scale): batched queries
/// against a synthetic training set, entering the pipeline at the fused
/// `cim` stage (the torch-level Euclidean pattern is single-query).
#[derive(Debug, Clone)]
pub struct KnnWorkload {
    /// Stored training patterns.
    pub patterns: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// Queries to simulate.
    pub queries: usize,
    /// Neighbours to retrieve.
    pub k: usize,
    /// Feature noise.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl KnnWorkload {
    /// The paper's Pneumonia-scale setting (5216 patterns × 4096
    /// features) with a reduced query count.
    pub fn paper(queries: usize) -> KnnWorkload {
        KnnWorkload {
            patterns: 5216,
            dims: 4096,
            queries,
            k: 5,
            noise: 0.2,
            seed: 7,
        }
    }

    fn dataset(&self) -> KnnDataset {
        KnnDataset::synthetic(
            self.patterns,
            self.dims,
            2,
            self.queries,
            self.noise,
            self.seed,
        )
    }
}

impl Workload for KnnWorkload {
    fn name(&self) -> &'static str {
        "knn"
    }

    fn query_count(&self) -> usize {
        self.queries
    }

    fn stored_rows(&self) -> usize {
        self.patterns
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn build_module(&self, _spec: &ArchSpec) -> WorkloadModule {
        let mut module = Module::new();
        cim::build_similarity_kernel(
            &mut module,
            "knn",
            "eucl",
            self.patterns as i64,
            self.dims as i64,
            self.queries as i64,
            self.k as i64,
            false, // smallest distances
        );
        WorkloadModule {
            module,
            func: "knn",
            arg_order: ArgOrder::StoredThenQueries,
        }
    }

    fn inputs(&self, _spec: &ArchSpec) -> WorkloadInputs {
        let data = self.dataset();
        // Ground truth: nearest stored pattern per query.
        let labels = data.nearest_labels();
        WorkloadInputs {
            stored: data.train,
            queries: data.queries,
            labels,
        }
    }
}

/// Decision-tree inference (the DT2CAM \[25\] application class) as
/// quantized nearest-path retrieval: each root-to-leaf path becomes a
/// stored row of interval midpoints (don't-care features sit at the
/// domain center) and a sample classifies by minimum Euclidean
/// distance. Features quantize to the architecture's MCAM level grid
/// (`2^bits_per_cell` levels) so the CPU reference and the
/// exact-integer device kernels agree.
#[derive(Debug, Clone)]
pub struct DtreeWorkload {
    tree: DecisionTree,
    samples: usize,
    sample_seed: u64,
}

impl DtreeWorkload {
    /// Deterministic random tree of `depth` over `features` continuous
    /// inputs, classified on `samples` uniform samples.
    pub fn new(
        features: usize,
        classes: usize,
        depth: usize,
        samples: usize,
        seed: u64,
    ) -> DtreeWorkload {
        DtreeWorkload {
            tree: DecisionTree::random(features, classes, depth, seed),
            samples,
            sample_seed: seed.wrapping_mul(0x9e37_79b9).wrapping_add(13),
        }
    }

    /// The underlying decision tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    fn quantize(spec: &ArchSpec, v: f32) -> f32 {
        let levels = ((1u32 << spec.bits_per_cell) - 1) as f32;
        (v.clamp(0.0, 1.0) * levels).round()
    }
}

impl Workload for DtreeWorkload {
    fn name(&self) -> &'static str {
        "dtree"
    }

    fn query_count(&self) -> usize {
        self.samples
    }

    fn stored_rows(&self) -> usize {
        self.tree.leaves()
    }

    fn dims(&self) -> usize {
        self.tree.features
    }

    fn build_module(&self, _spec: &ArchSpec) -> WorkloadModule {
        let mut module = Module::new();
        cim::build_similarity_kernel(
            &mut module,
            "dtree",
            "eucl",
            self.tree.leaves() as i64,
            self.tree.features as i64,
            self.samples as i64,
            1,
            false, // smallest distance = nearest path
        );
        WorkloadModule {
            module,
            func: "dtree",
            arg_order: ArgOrder::StoredThenQueries,
        }
    }

    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        let rows = self.tree.to_rows();
        let features = self.tree.features;
        let mut stored = Vec::with_capacity(rows.len() * features);
        for row in &rows {
            for iv in &row.intervals {
                stored.push(Self::quantize(
                    spec,
                    match iv {
                        Some((lo, hi)) => (lo + hi) / 2.0,
                        None => 0.5,
                    },
                ));
            }
        }
        let stored = Tensor::from_vec(vec![rows.len(), features], stored).expect("shape");
        let samples = self.tree.samples(self.samples, self.sample_seed);
        let queries = Tensor::from_vec(
            vec![samples.len(), features],
            samples
                .iter()
                .flatten()
                .map(|&v| Self::quantize(spec, v))
                .collect(),
        )
        .expect("shape");
        // Ground truth: nearest stored path row by squared Euclidean
        // distance over the quantized grid (lowest index wins ties),
        // exactly the reduction the device performs.
        let labels = nearest_rows_cpu(&stored, &queries);
        WorkloadInputs {
            stored,
            queries,
            labels,
        }
    }
}

/// The §IV-B GPU-comparison shape: the paper's 10-class HDC classifier
/// with largest-dot selection, carrying the analytic RTX-6000-class
/// baseline so a simulated CAM outcome can be turned into the paper's
/// latency/energy improvement factors.
#[derive(Debug, Clone)]
pub struct GpuComparisonWorkload {
    /// The HDC classification shape being compared.
    pub hdc: HdcWorkload,
    /// Analytic GPU baseline.
    pub gpu: GpuModel,
}

impl GpuComparisonWorkload {
    /// The paper's comparison: MNIST-scale HDC vs the Quadro RTX 6000
    /// model.
    pub fn paper(queries: usize) -> GpuComparisonWorkload {
        GpuComparisonWorkload {
            hdc: HdcWorkload::paper(queries),
            gpu: GpuModel::rtx6000(),
        }
    }

    /// Build the paper's comparison for a CAM execution of
    /// `cam_latency_s` seconds and `cam_energy_j` joules covering
    /// `queries` classified hypervectors.
    pub fn comparison(
        &self,
        queries: usize,
        cam_latency_s: f64,
        cam_energy_j: f64,
    ) -> GpuComparison {
        GpuComparison::compute(
            &self.gpu,
            queries,
            self.hdc.classes,
            self.hdc.dims,
            cam_latency_s,
            cam_energy_j,
        )
    }
}

impl Workload for GpuComparisonWorkload {
    fn name(&self) -> &'static str {
        "gpu"
    }

    fn query_count(&self) -> usize {
        self.hdc.query_count()
    }

    fn stored_rows(&self) -> usize {
        self.hdc.stored_rows()
    }

    fn dims(&self) -> usize {
        self.hdc.dims()
    }

    fn build_module(&self, spec: &ArchSpec) -> WorkloadModule {
        self.hdc.build_module(spec)
    }

    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        self.hdc.inputs(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bits: u32) -> ArchSpec {
        ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .cam_kind(if bits > 1 {
                c4cam_arch::CamKind::Mcam
            } else {
                c4cam_arch::CamKind::Tcam
            })
            .bits_per_cell(bits)
            .build()
            .unwrap()
    }

    #[test]
    fn hdc_workload_geometry_and_inputs_agree() {
        let w = HdcWorkload {
            classes: 4,
            dims: 64,
            queries: 6,
            flip_rate: 0.1,
            seed: 3,
        };
        assert_eq!(w.name(), "hdc");
        assert_eq!(w.query_count(), 6);
        assert_eq!(w.stored_rows(), 4);
        assert_eq!(w.dims(), 64);
        let inputs = w.inputs(&spec(1));
        assert_eq!(inputs.stored.shape(), &[4, 64]);
        assert_eq!(inputs.queries.shape(), &[6, 64]);
        assert_eq!(inputs.labels.len(), 6);
        assert_eq!(inputs.labels, w.labels(&spec(1)));
        // Binary at 1 bit per cell.
        assert!(inputs.stored.data().iter().all(|&v| v == 0.0 || v == 1.0));
        // Multi-bit data follows the architecture's level grid.
        let multi = w.inputs(&spec(2));
        assert!(multi.stored.data().iter().any(|&v| v > 1.0));
        assert!(multi
            .stored
            .data()
            .iter()
            .all(|&v| (0.0..=3.0).contains(&v)));
    }

    #[test]
    fn input_bytes_count_each_storage_once() {
        let stored = Tensor::zeros(vec![3, 4]);
        let mut inputs = WorkloadInputs {
            queries: Tensor::zeros(vec![2, 4]),
            stored: stored.clone(),
            labels: Vec::new(),
        };
        assert_eq!(inputs.input_bytes(), 4 * (12 + 8));
        inputs.queries = stored;
        assert_eq!(inputs.input_bytes(), 4 * 12);
    }

    #[test]
    fn hdc_module_entry_is_forward() {
        let w = HdcWorkload::paper(4);
        let m = w.build_module(&spec(1));
        assert_eq!(m.func, "forward");
        assert_eq!(m.arg_order, ArgOrder::QueriesThenStored);
        assert!(m.module.lookup_symbol("forward").is_some());
    }

    /// `inputs(..).labels` is the CPU reference's top-1, query by query.
    fn assert_labels_are_cpu_nearest(w: &KnnWorkload) {
        let inputs = w.inputs(&spec(1));
        let data = w.dataset();
        let want: Vec<usize> = (0..w.queries).map(|q| data.nearest_cpu(q, 1)[0]).collect();
        assert_eq!(inputs.labels, want, "{w:?}");
    }

    #[test]
    fn knn_workload_labels_are_cpu_nearest() {
        let w = KnnWorkload {
            patterns: 32,
            dims: 48,
            queries: 5,
            k: 1,
            noise: 0.1,
            seed: 3,
        };
        let inputs = w.inputs(&spec(1));
        assert_eq!(inputs.stored.shape(), &[32, 48]);
        assert_eq!(inputs.queries.shape(), &[5, 48]);
        // 65 and 129 features leave one bit in the last packed word; few
        // features over many patterns force distance ties.
        for (patterns, dims, seed) in [
            (32, 48, 3),
            (40, 65, 1),
            (64, 7, 2),
            (96, 129, 5),
            (50, 3, 9),
        ] {
            assert_labels_are_cpu_nearest(&KnnWorkload {
                patterns,
                dims,
                queries: 9,
                k: 1,
                noise: 0.3,
                seed,
            });
        }
        let m = w.build_module(&spec(1));
        assert_eq!(m.func, "knn");
        assert_eq!(m.arg_order, ArgOrder::StoredThenQueries);
    }

    #[test]
    fn knn_labels_are_cpu_nearest_at_paper_scale() {
        assert_labels_are_cpu_nearest(&KnnWorkload::paper(3));
    }

    #[test]
    fn dtree_workload_quantizes_to_the_level_grid() {
        let w = DtreeWorkload::new(6, 3, 3, 8, 7);
        assert_eq!(w.stored_rows(), w.tree().leaves());
        assert_eq!(w.dims(), 6);
        let inputs = w.inputs(&spec(2));
        assert!(inputs
            .stored
            .data()
            .iter()
            .chain(inputs.queries.data())
            .all(|&v| v == v.round() && (0.0..=3.0).contains(&v)));
        // Labels are the argmin rows of the quantized stored set.
        for (q, &label) in inputs.labels.iter().enumerate() {
            let qr = inputs.queries.row(q).unwrap();
            let d_label = Tensor::squared_distance(qr, inputs.stored.row(label).unwrap()).unwrap();
            for r in 0..w.stored_rows() {
                let d = Tensor::squared_distance(qr, inputs.stored.row(r).unwrap()).unwrap();
                assert!(d >= d_label, "row {r} beats label {label} for query {q}");
            }
        }
    }

    #[test]
    fn dtree_workload_is_deterministic() {
        let a = DtreeWorkload::new(6, 3, 3, 8, 7).inputs(&spec(2));
        let b = DtreeWorkload::new(6, 3, 3, 8, 7).inputs(&spec(2));
        assert_eq!(a.stored.data(), b.stored.data());
        assert_eq!(a.queries.data(), b.queries.data());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn gpu_workload_delegates_to_hdc_and_carries_the_baseline() {
        let w = GpuComparisonWorkload::paper(4);
        assert_eq!(w.name(), "gpu");
        assert_eq!(w.query_count(), 4);
        assert_eq!(w.stored_rows(), 10);
        assert_eq!(w.dims(), 8192);
        let cmp = w.comparison(10_000, 8e-9 * 10_000.0, 200e-12 * 10_000.0);
        assert!(cmp.latency_improvement() > 20.0);
    }
}
