//! Bridge between the resident server (`c4cam_server`) and the
//! compiler pipeline.
//!
//! The server crate deliberately knows nothing about tensors, IR, or
//! backends — it speaks [`PlanSource`]/[`BatchRunner`]. This module
//! implements both over a loaded [`Dataset`]:
//!
//! - [`DatasetPlanSource::compile`] runs the full Parse/Place/Compile
//!   pipeline once per [`PlanKey`] via [`Experiment::compile`] and
//!   wraps the resulting [`CompiledExperiment`] in a runner;
//! - the runner executes coalesced batches with
//!   [`CompiledExperiment::run_with_queries`], padding each batch to
//!   the compiled capacity (plans bake their query count into the
//!   tape; per-query independence makes padding output-neutral).
//!
//! Requests address queries by *row index into the dataset's query
//! pool* (the tail-quarter split every other subcommand uses), so a
//! client holding the same dataset can verify every response against
//! [`reference_pool_classes`] exactly.

use crate::driver::{build_arch, CompiledExperiment, Experiment};
use c4cam_arch::{ArchSpec, Optimization};
use c4cam_datasets::{Dataset, DatasetTask, DatasetWorkload};
use c4cam_server::protocol::PlanKey;
use c4cam_server::{BatchRunner, PlanSource, RowsOutcome};
use c4cam_telemetry::Telemetry;
use c4cam_tensor::Tensor;
use c4cam_workloads::Workload as _;
use std::sync::Arc;

/// Compiles dataset classification plans for the service cache.
pub struct DatasetPlanSource {
    dataset: Dataset,
    defaults: PlanKey,
    max_batch: usize,
    threads: usize,
    telemetry: Telemetry,
}

impl DatasetPlanSource {
    /// A source over `dataset` with the given default plan key,
    /// maximum batch size (clamped to the query-pool size at compile
    /// time), and executor thread count.
    pub fn new(
        dataset: Dataset,
        defaults: PlanKey,
        max_batch: usize,
        threads: usize,
        telemetry: Telemetry,
    ) -> DatasetPlanSource {
        DatasetPlanSource {
            dataset,
            defaults,
            max_batch: max_batch.max(1),
            threads,
            telemetry,
        }
    }

    /// Rows in the dataset's query pool (the index space requests
    /// address).
    pub fn pool_size(&self) -> usize {
        pool_split(&self.dataset).1
    }

    /// The batch capacity a plan compiled now would have.
    pub fn capacity(&self) -> usize {
        self.max_batch.min(self.pool_size())
    }
}

/// The deterministic train/pool split every dataset workload uses:
/// `(train, pool)` sample counts.
fn pool_split(dataset: &Dataset) -> (usize, usize) {
    let pool = (dataset.samples() / 4).max(1);
    (dataset.samples() - pool, pool)
}

fn arch_for(key: &PlanKey) -> Result<ArchSpec, String> {
    build_arch(
        (key.subarray, key.subarray),
        (4, 4, 8),
        Optimization::Base,
        key.bits,
    )
    .map_err(|e| format!("invalid arch for {key}: {e}"))
}

impl PlanSource for DatasetPlanSource {
    fn default_key(&self) -> PlanKey {
        self.defaults.clone()
    }

    fn compile(&self, key: &PlanKey) -> Result<Arc<dyn BatchRunner>, String> {
        let task: DatasetTask = key.task.parse()?;
        let spec = arch_for(key)?;
        let (train, pool) = pool_split(&self.dataset);
        let capacity = self.max_batch.min(pool);
        let workload = DatasetWorkload::new(self.dataset.clone(), task, Some(capacity))
            .map_err(|e| format!("workload for {key}: {e}"))?;
        let compiled = Experiment::new(&workload)
            .arch(spec.clone())
            .backend(key.backend.as_str())
            .threads(self.threads)
            .telemetry(self.telemetry.clone())
            .compile()
            .map_err(|e| format!("compile {key}: {e}"))?;
        // Quantize the whole pool once so request handling is a pure
        // row gather. The quantizer depends only on the spec's cell
        // width, so these rows match what the plan was compiled over.
        let quantizer = workload.quantizer(&spec);
        let pool_rows: Vec<Vec<f32>> = (0..pool)
            .map(|i| quantizer.quantize_row(self.dataset.feature_row(train + i)))
            .collect();
        let row_classes: Vec<usize> = (0..workload.stored_rows())
            .map(|r| workload.row_class(r))
            .collect();
        Ok(Arc::new(DatasetRunner {
            compiled,
            pool_rows,
            dims: self.dataset.dims(),
            capacity,
            row_classes,
        }))
    }
}

/// A compiled plan plus the quantized query pool it executes over.
struct DatasetRunner {
    compiled: CompiledExperiment,
    pool_rows: Vec<Vec<f32>>,
    dims: usize,
    capacity: usize,
    row_classes: Vec<usize>,
}

impl BatchRunner for DatasetRunner {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn pool_size(&self) -> usize {
        self.pool_rows.len()
    }

    fn run_rows(&self, rows: &[usize]) -> Result<RowsOutcome, String> {
        if rows.is_empty() {
            return Err("empty batch".to_string());
        }
        if rows.len() > self.capacity {
            return Err(format!(
                "batch of {} rows exceeds compiled capacity {}",
                rows.len(),
                self.capacity
            ));
        }
        let mut data = Vec::with_capacity(self.capacity * self.dims);
        for &r in rows {
            let row = self
                .pool_rows
                .get(r)
                .ok_or_else(|| format!("row {r} out of pool (size {})", self.pool_rows.len()))?;
            data.extend_from_slice(row);
        }
        // Pad to the compiled shape with copies of the first row; the
        // padded queries run but their outputs are discarded below.
        for _ in rows.len()..self.capacity {
            data.extend_from_slice(&self.pool_rows[rows[0]]);
        }
        let queries = Tensor::from_vec(vec![self.capacity, self.dims], data)
            .map_err(|e| format!("batch tensor: {e}"))?;
        let outcome = self
            .compiled
            .run_with_queries(queries)
            .map_err(|e| format!("execute: {e}"))?;
        let predictions: Vec<usize> = outcome.predictions[..rows.len()].to_vec();
        let classes = predictions
            .iter()
            .map(|&p| {
                self.row_classes.get(p).copied().ok_or_else(|| {
                    let stored = self.row_classes.len();
                    format!("execute: predicted row {p} of {stored} stored rows")
                })
            })
            .collect::<Result<Vec<usize>, String>>()?;
        Ok(RowsOutcome {
            predictions,
            classes,
            sim_latency_ns_per_query: outcome.latency_per_query_ns(),
            sim_energy_pj_per_query: outcome.energy_per_query_pj(),
        })
    }
}

/// CPU-reference class per query-pool row, for exact verification of
/// service responses: nearest stored row over the quantized grid
/// (what the CAM computes), mapped through the row→class rule.
///
/// # Errors
/// Unknown task keywords, invalid arch parameters, and datasets the
/// task cannot adapt (e.g. a class with no training representative).
pub fn reference_pool_classes(dataset: &Dataset, key: &PlanKey) -> Result<Vec<usize>, String> {
    let task: DatasetTask = key.task.parse()?;
    let spec = arch_for(key)?;
    let (_, pool) = pool_split(dataset);
    // Full-pool workload: predict_cpu covers every addressable row.
    let workload = DatasetWorkload::new(dataset.clone(), task, Some(pool))
        .map_err(|e| format!("workload: {e}"))?;
    Ok(workload
        .predict_cpu(&spec)
        .iter()
        .map(|&row| workload.row_class(row))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_datasets::mini_mnist;

    fn key(backend: &str) -> PlanKey {
        PlanKey {
            task: "hdc".into(),
            bits: 2,
            subarray: 32,
            backend: backend.into(),
        }
    }

    fn source(max_batch: usize) -> DatasetPlanSource {
        DatasetPlanSource::new(
            mini_mnist::dataset(),
            key("tape"),
            max_batch,
            2,
            Telemetry::default(),
        )
    }

    #[test]
    fn compiled_runner_matches_cpu_reference_for_every_pool_row() {
        let src = source(8);
        let runner = src.compile(&key("tape")).unwrap();
        assert_eq!(runner.capacity(), 8);
        let pool = runner.pool_size();
        assert_eq!(pool, src.pool_size());
        let expected = reference_pool_classes(&mini_mnist::dataset(), &key("tape")).unwrap();
        assert_eq!(expected.len(), pool);
        for start in (0..pool).step_by(8) {
            let rows: Vec<usize> = (start..(start + 8).min(pool)).collect();
            let out = runner.run_rows(&rows).unwrap();
            assert_eq!(out.predictions.len(), rows.len());
            for (i, &row) in rows.iter().enumerate() {
                assert_eq!(
                    out.classes[i], expected[row],
                    "row {row} diverged from the CPU reference"
                );
            }
            assert!(out.sim_latency_ns_per_query > 0.0);
            assert!(out.sim_energy_pj_per_query > 0.0);
        }
    }

    #[test]
    fn partial_batches_match_full_batches_bit_for_bit() {
        let src = source(4);
        let runner = src.compile(&key("tape")).unwrap();
        let full = runner.run_rows(&[5, 9, 2, 11]).unwrap();
        // The same rows in two padded partial batches.
        let a = runner.run_rows(&[5, 9]).unwrap();
        let b = runner.run_rows(&[2, 11]).unwrap();
        assert_eq!(&full.predictions[..2], &a.predictions[..]);
        assert_eq!(&full.predictions[2..], &b.predictions[..]);
        assert_eq!(&full.classes[..2], &a.classes[..]);
        assert_eq!(&full.classes[2..], &b.classes[..]);
    }

    #[test]
    fn runner_rejects_out_of_range_and_oversize_batches() {
        let src = source(2);
        let runner = src.compile(&key("tape")).unwrap();
        let pool = runner.pool_size();
        assert!(runner
            .run_rows(&[pool])
            .unwrap_err()
            .contains("out of pool"));
        assert!(runner
            .run_rows(&[0, 1, 2])
            .unwrap_err()
            .contains("exceeds compiled capacity"));
        assert!(runner.run_rows(&[]).unwrap_err().contains("empty"));
    }

    #[test]
    fn unknown_backends_and_tasks_fail_to_compile() {
        let src = source(4);
        assert!(src.compile(&key("no-such-backend")).is_err());
        let mut k = key("tape");
        k.task = "svm".into();
        let e = src.compile(&k).err().expect("compile should fail");
        assert!(e.contains("unknown task"), "{e}");
    }
}
