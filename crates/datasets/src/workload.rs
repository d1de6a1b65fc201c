//! Dataset-backed [`Workload`] adapters.
//!
//! [`DatasetWorkload`] puts real data through the *unchanged* driver
//! stack: it implements the same [`Workload`] trait the synthetic
//! workloads do, so `Experiment`, the tape engine, the sweep grid, and
//! the CLI all run it without modification. Two task shapes cover the
//! paper's evaluation set:
//!
//! * [`DatasetTask::Hdc`] — nearest-prototype classification: one
//!   stored row per class (the quantized centroid of that class's
//!   training samples), so a predicted stored-row index *is* the
//!   predicted class (paper §IV-A3 HDC/MNIST).
//! * [`DatasetTask::Knn`] — top-1 nearest-neighbour retrieval over the
//!   stored training samples (paper §IV-A3 KNN/Pneumonia);
//!   [`DatasetWorkload::row_class`] maps a retrieved row to its class.
//!
//! Both lower to the fused `cim` similarity kernel with the squared-
//! Euclidean metric over the [`Quantizer`]'s integer level grid, where
//! the device kernels are exact — so the CPU reference
//! ([`DatasetWorkload::predict_cpu`]) agrees with the CAM result
//! row-for-row, and accuracy differences can only come from
//! quantization itself, never from simulation noise.

use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::quantize::Quantizer;
use c4cam_arch::ArchSpec;
use c4cam_core::dialects::cim;
use c4cam_ir::Module;
use c4cam_tensor::Tensor;
use c4cam_workloads::{nearest_rows_cpu, ArgOrder, Workload, WorkloadInputs, WorkloadModule};

/// Which classifier shape a [`DatasetWorkload`] lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetTask {
    /// Nearest class prototype (one stored row per class).
    Hdc,
    /// Top-1 nearest training sample (one stored row per sample).
    Knn,
}

impl DatasetTask {
    /// Keyword used on the command line (`hdc`/`knn`).
    pub fn keyword(self) -> &'static str {
        match self {
            DatasetTask::Hdc => "hdc",
            DatasetTask::Knn => "knn",
        }
    }
}

impl std::str::FromStr for DatasetTask {
    type Err = String;

    fn from_str(s: &str) -> Result<DatasetTask, String> {
        match s {
            "hdc" => Ok(DatasetTask::Hdc),
            "knn" => Ok(DatasetTask::Knn),
            other => Err(format!("unknown task '{other}' (expected hdc|knn)")),
        }
    }
}

/// Fraction of samples held out as the query pool (the tail quarter).
const QUERY_POOL_DENOMINATOR: usize = 4;

/// A real dataset adapted to the [`Workload`] interface.
#[derive(Debug, Clone)]
pub struct DatasetWorkload {
    dataset: Dataset,
    task: DatasetTask,
    train: usize,
    queries: usize,
}

impl DatasetWorkload {
    /// Adapt `dataset` to `task`. The split is deterministic: the last
    /// quarter of the samples (at least one) is the query pool and the
    /// rest is the training set; `limit` caps the number of queries
    /// actually executed (clamped to the pool size).
    ///
    /// # Errors
    /// [`DatasetError::Empty`] when the split leaves no training
    /// samples, and for [`DatasetTask::Hdc`]
    /// [`DatasetError::MissingClass`] when some class has no training
    /// representative (no prototype can be built).
    pub fn new(
        dataset: Dataset,
        task: DatasetTask,
        limit: Option<usize>,
    ) -> Result<DatasetWorkload, DatasetError> {
        let pool = (dataset.samples() / QUERY_POOL_DENOMINATOR).max(1);
        let train = dataset.samples() - pool;
        if train == 0 {
            return Err(DatasetError::Empty);
        }
        let queries = limit.unwrap_or(pool).clamp(1, pool);
        if task == DatasetTask::Hdc {
            for class in 0..dataset.classes() {
                if !dataset.labels()[..train].contains(&class) {
                    return Err(DatasetError::MissingClass { class });
                }
            }
        }
        Ok(DatasetWorkload {
            dataset,
            task,
            train,
            queries,
        })
    }

    /// The adapted dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The task shape.
    pub fn task(&self) -> DatasetTask {
        self.task
    }

    /// Training samples (stored rows for [`DatasetTask::Knn`]).
    pub fn train_count(&self) -> usize {
        self.train
    }

    /// The quantizer this workload uses for `spec` (the dataset's
    /// feature domain onto the spec's `bits_per_cell` alphabet).
    ///
    /// # Panics
    /// Panics on a spec whose `bits_per_cell` fails validation —
    /// impossible for a built [`ArchSpec`].
    pub fn quantizer(&self, spec: &ArchSpec) -> Quantizer {
        let (lo, hi) = self.dataset.feature_range();
        Quantizer::with_range(spec.bits_per_cell, lo, hi)
            .expect("validated spec and dataset ranges")
    }

    /// Class of a stored row: the row index itself for
    /// [`DatasetTask::Hdc`] (rows are class prototypes), the training
    /// sample's label for [`DatasetTask::Knn`].
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn row_class(&self, row: usize) -> usize {
        match self.task {
            DatasetTask::Hdc => {
                assert!(row < self.dataset.classes(), "row out of range");
                row
            }
            DatasetTask::Knn => self.dataset.label(row),
        }
    }

    /// Ground-truth class per executed query.
    pub fn query_classes(&self) -> Vec<usize> {
        (0..self.queries)
            .map(|q| self.dataset.label(self.train + q))
            .collect()
    }

    /// CPU reference classifier: the nearest stored row per query
    /// (squared Euclidean over the quantized grid, lowest index wins
    /// ties) — the exact reduction the CAM performs.
    pub fn predict_cpu(&self, spec: &ArchSpec) -> Vec<usize> {
        let inputs = self.inputs(spec);
        nearest_rows_cpu(&inputs.stored, &inputs.queries)
    }

    /// Classification accuracy of stored-row `predictions` against the
    /// ground-truth classes (rows are mapped through
    /// [`DatasetWorkload::row_class`]).
    ///
    /// # Panics
    /// Panics if `predictions` does not have one entry per query.
    pub fn class_accuracy(&self, predictions: &[usize]) -> f64 {
        let classes: Vec<usize> = predictions.iter().map(|&r| self.row_class(r)).collect();
        c4cam_workloads::accuracy(&classes, &self.query_classes())
    }

    fn stored_tensor(&self, q: &Quantizer) -> Tensor {
        let dims = self.dataset.dims();
        match self.task {
            DatasetTask::Knn => {
                let mut data = Vec::with_capacity(self.train * dims);
                for i in 0..self.train {
                    data.extend(q.quantize_row(self.dataset.feature_row(i)));
                }
                Tensor::from_vec(vec![self.train, dims], data).expect("shape")
            }
            DatasetTask::Hdc => {
                // Per-class prototype: the mean training image,
                // quantized onto the level grid.
                let classes = self.dataset.classes();
                let mut sums = vec![0.0f64; classes * dims];
                let mut counts = vec![0usize; classes];
                for i in 0..self.train {
                    let class = self.dataset.label(i);
                    counts[class] += 1;
                    for (d, &v) in self.dataset.feature_row(i).iter().enumerate() {
                        sums[class * dims + d] += v;
                    }
                }
                let mut data = Vec::with_capacity(classes * dims);
                for class in 0..classes {
                    // `new` guarantees every class has samples.
                    let n = counts[class] as f64;
                    let row: Vec<f64> = sums[class * dims..(class + 1) * dims]
                        .iter()
                        .map(|&s| s / n)
                        .collect();
                    data.extend(q.quantize_row(&row));
                }
                Tensor::from_vec(vec![classes, dims], data).expect("shape")
            }
        }
    }

    fn query_tensor(&self, q: &Quantizer) -> Tensor {
        let dims = self.dataset.dims();
        let mut data = Vec::with_capacity(self.queries * dims);
        for i in 0..self.queries {
            data.extend(q.quantize_row(self.dataset.feature_row(self.train + i)));
        }
        Tensor::from_vec(vec![self.queries, dims], data).expect("shape")
    }
}

impl Workload for DatasetWorkload {
    fn name(&self) -> &'static str {
        match self.task {
            DatasetTask::Hdc => "dataset-hdc",
            DatasetTask::Knn => "dataset-knn",
        }
    }

    fn query_count(&self) -> usize {
        self.queries
    }

    fn stored_rows(&self) -> usize {
        match self.task {
            DatasetTask::Hdc => self.dataset.classes(),
            DatasetTask::Knn => self.train,
        }
    }

    fn dims(&self) -> usize {
        self.dataset.dims()
    }

    fn build_module(&self, _spec: &ArchSpec) -> WorkloadModule {
        let mut module = Module::new();
        cim::build_similarity_kernel(
            &mut module,
            "dataset",
            "eucl",
            self.stored_rows() as i64,
            self.dims() as i64,
            self.queries as i64,
            1,
            false, // smallest distance = nearest row
        );
        WorkloadModule {
            module,
            func: "dataset",
            arg_order: ArgOrder::StoredThenQueries,
        }
    }

    fn inputs(&self, spec: &ArchSpec) -> WorkloadInputs {
        let q = self.quantizer(spec);
        let stored = self.stored_tensor(&q);
        let queries = self.query_tensor(&q);
        // Ground-truth stored-row index per query: for HDC the stored
        // row *is* the class, so this is the sample's real label; for
        // KNN it is the CPU-reference nearest row (class-level truth
        // lives in `query_classes`/`row_class`).
        let labels = match self.task {
            DatasetTask::Hdc => self.query_classes(),
            DatasetTask::Knn => nearest_rows_cpu(&stored, &queries),
        };
        WorkloadInputs {
            stored,
            queries,
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mini_mnist;
    use c4cam_arch::CamKind;

    #[test]
    fn task_keywords_round_trip_and_unknown_ones_list_the_alternatives() {
        for task in [DatasetTask::Hdc, DatasetTask::Knn] {
            assert_eq!(task.keyword().parse(), Ok(task));
        }
        let e = "svm".parse::<DatasetTask>().unwrap_err();
        assert_eq!(e, "unknown task 'svm' (expected hdc|knn)");
    }

    fn spec(bits: u32) -> ArchSpec {
        ArchSpec::builder()
            .subarray(16, 16)
            .hierarchy(2, 2, 4)
            .cam_kind(if bits > 1 {
                CamKind::Mcam
            } else {
                CamKind::Tcam
            })
            .bits_per_cell(bits)
            .build()
            .unwrap()
    }

    #[test]
    fn split_is_deterministic_and_limit_clamps() {
        let w = DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Knn, None).unwrap();
        assert_eq!(w.train_count(), 192);
        assert_eq!(w.query_count(), 64);
        assert_eq!(w.stored_rows(), 192);
        let limited =
            DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Knn, Some(8)).unwrap();
        assert_eq!(limited.query_count(), 8);
        let over =
            DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Knn, Some(9999)).unwrap();
        assert_eq!(over.query_count(), 64, "limit clamps to the pool");
    }

    #[test]
    fn hdc_task_stores_one_prototype_per_class() {
        let w = DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Hdc, Some(16)).unwrap();
        assert_eq!(w.stored_rows(), mini_mnist::CLASSES);
        assert_eq!(w.name(), "dataset-hdc");
        assert_eq!(w.row_class(7), 7);
        let inputs = w.inputs(&spec(2));
        assert_eq!(inputs.stored.shape(), &[10, 64]);
        assert_eq!(inputs.queries.shape(), &[16, 64]);
        // Everything sits on the 2-bit level grid.
        assert!(inputs
            .stored
            .data()
            .iter()
            .chain(inputs.queries.data())
            .all(|&v| v == v.round() && (0.0..=3.0).contains(&v)));
        // HDC ground truth is the real class label.
        assert_eq!(inputs.labels, w.query_classes());
    }

    #[test]
    fn knn_task_labels_are_cpu_nearest_rows() {
        let w = DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Knn, Some(12)).unwrap();
        assert_eq!(w.name(), "dataset-knn");
        let s = spec(1);
        let inputs = w.inputs(&s);
        assert_eq!(inputs.labels, w.predict_cpu(&s));
        // Row classes come from the training labels.
        assert_eq!(w.row_class(0), w.dataset().label(0));
        // The nearest neighbour almost always shares the query's class
        // on this class-structured fixture.
        assert!(w.class_accuracy(&inputs.labels) > 0.9);
    }

    #[test]
    fn cpu_prototype_classifier_is_accurate_on_the_fixture() {
        for bits in [1, 2, 4] {
            let w = DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Hdc, None).unwrap();
            let s = spec(bits);
            let acc = w.class_accuracy(&w.predict_cpu(&s));
            assert!(acc > 0.85, "bits {bits}: accuracy {acc}");
        }
    }

    #[test]
    fn inputs_are_deterministic() {
        let w = DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Hdc, Some(8)).unwrap();
        let a = w.inputs(&spec(2));
        let b = w.inputs(&spec(2));
        assert_eq!(a.stored.data(), b.stored.data());
        assert_eq!(a.queries.data(), b.queries.data());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn missing_class_in_the_training_split_is_rejected() {
        // All class-3 samples live in the query tail.
        let features = vec![0.0; 8 * 2];
        let labels = vec![0, 1, 2, 0, 1, 2, 3, 3];
        let d = Dataset::new("gap", features, labels, 2, 0.0, 1.0).unwrap();
        let e = DatasetWorkload::new(d.clone(), DatasetTask::Hdc, None).unwrap_err();
        assert!(matches!(e, DatasetError::MissingClass { class: 3 }), "{e}");
        // KNN has no prototypes, so the same split is fine.
        assert!(DatasetWorkload::new(d, DatasetTask::Knn, None).is_ok());
    }
}
