//! Shared helpers for the C4CAM benchmark harness: the hand-optimized
//! "manual" baseline mapping (the comparison target of the paper's
//! Fig. 7 validation) and table formatting.

use c4cam::arch::tech::Level;
use c4cam::arch::{ArchSpec, MatchKind, Metric};
use c4cam::camsim::{CamMachine, ExecStats, SearchSpec, SubarrayId};
use c4cam::compiler::mapping::{place, MappingProblem, Placement};
use c4cam::tensor::Tensor;
use c4cam::workloads::HdcModel;

/// A hand-written HDC mapping, mirroring the hand-optimized design of
/// \[22\] that the paper validates against: chunks of the class
/// hypervectors are written across subarrays once, then each query is
/// broadcast and searched fully in parallel, with per-level periphery
/// merges and a sequential host accumulation across banks.
///
/// This bypasses the compiler entirely — it drives the simulator
/// directly — so comparing it with C4CAM-generated code measures the
/// quality of the *generated mapping*, exactly like the paper's Fig. 7.
pub struct ManualHdc {
    machine: CamMachine,
    placement: Placement,
    subarrays: Vec<SubarrayId>,
    spec: ArchSpec,
    stored_rows: usize,
    dims: usize,
    setup: ExecStats,
}

impl ManualHdc {
    /// Allocate and program the accelerator for `model`.
    ///
    /// # Panics
    /// Panics if the placement or any simulator call fails (the manual
    /// baseline is used only with known-good configurations).
    pub fn program(spec: &ArchSpec, model: &HdcModel) -> ManualHdc {
        let placement = place(
            spec,
            &MappingProblem {
                stored_rows: model.classes(),
                feature_dims: model.dims(),
                queries: 1,
            },
        )
        .expect("placement");
        let mut machine = CamMachine::new(spec);
        let mut subarrays = Vec::with_capacity(placement.physical_subarrays);
        'alloc: for _ in 0..placement.banks {
            let bank = machine.alloc_bank().expect("bank");
            for _ in 0..spec.mats_per_bank {
                let mat = machine.alloc_mat(bank).expect("mat");
                for _ in 0..spec.arrays_per_mat {
                    let array = machine.alloc_array(mat).expect("array");
                    for _ in 0..spec.subarrays_per_array {
                        if subarrays.len() >= placement.physical_subarrays {
                            break 'alloc;
                        }
                        subarrays.push(machine.alloc_subarray(array).expect("subarray"));
                    }
                }
            }
        }
        // Program: chunk c of the class hypervectors → subarray c.
        let cols = spec.cols_per_subarray;
        let stored = model.class_hvs();
        for (c, &sub) in subarrays.iter().enumerate() {
            let off = c * cols;
            if off >= model.dims() {
                break;
            }
            let width = cols.min(model.dims() - off);
            let rows: Vec<Vec<f32>> = (0..model.classes())
                .map(|r| stored.row(r).expect("row")[off..off + width].to_vec())
                .collect();
            machine.write_rows(sub, 0, &rows).expect("write");
        }
        let setup = machine.stats();
        ManualHdc {
            machine,
            placement,
            subarrays,
            spec: spec.clone(),
            stored_rows: model.classes(),
            dims: model.dims(),
            setup,
        }
    }

    /// Search one query across all chunks; returns the best class.
    ///
    /// # Panics
    /// Panics on simulator errors.
    pub fn query(&mut self, query: &[f32]) -> usize {
        assert_eq!(query.len(), self.dims);
        let cols = self.spec.cols_per_subarray;
        let mut scores = vec![0.0f64; self.stored_rows];
        let m = &mut self.machine;
        let per_array = self.spec.subarrays_per_array;
        let per_mat = per_array * self.spec.arrays_per_mat;
        let per_bank = per_mat * self.spec.mats_per_bank;

        // All banks/mats/arrays/subarrays search in parallel.
        m.push_parallel(); // banks
        let mut i = 0usize;
        while i < self.subarrays.len() {
            m.push_sequential(); // one bank's work
            m.push_parallel(); // mats
            let bank_end = (i + per_bank).min(self.subarrays.len());
            while i < bank_end {
                m.push_sequential();
                m.push_parallel(); // arrays
                let mat_end = (i + per_mat).min(bank_end);
                while i < mat_end {
                    m.push_sequential();
                    m.push_parallel(); // subarrays
                    let array_end = (i + per_array).min(mat_end);
                    while i < array_end {
                        m.push_sequential();
                        let sub = self.subarrays[i];
                        let off = i * cols;
                        if off < self.dims {
                            let width = cols.min(self.dims - off);
                            let q = &query[off..off + width];
                            let result = m
                                .search(sub, q, SearchSpec::new(MatchKind::Best, Metric::Dot))
                                .expect("search");
                            for (&row, &d) in result.rows.iter().zip(&result.distances) {
                                scores[row] += d;
                            }
                        }
                        m.pop_scope();
                        i += 1;
                    }
                    m.pop_scope(); // subarrays
                    m.merge(Level::Array, self.stored_rows);
                    m.pop_scope();
                }
                m.pop_scope(); // arrays
                m.merge(Level::Mat, self.stored_rows);
                m.pop_scope();
            }
            m.pop_scope(); // mats
            m.pop_scope();
        }
        // All hierarchy scopes closed ("banks" level included); the
        // host now accumulates across banks, sequentially.
        m.pop_scope();
        for _ in 0..self.placement.banks {
            m.merge(Level::Bank, self.stored_rows);
        }
        // Best class = smallest accumulated device score (negated dots).
        scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Statistics of the query phase so far (setup excluded).
    pub fn query_stats(&self) -> ExecStats {
        self.machine.stats().delta(&self.setup)
    }

    /// The placement used.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }
}

/// Run the manual baseline for all rows of `queries`, returning
/// query-phase stats.
pub fn run_manual_hdc(spec: &ArchSpec, model: &HdcModel, queries: &Tensor) -> ExecStats {
    let mut manual = ManualHdc::program(spec, model);
    for q in 0..queries.shape()[0] {
        manual.query(queries.row(q).expect("query"));
    }
    manual.query_stats()
}

/// Print a section header for bench output.
pub fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}
