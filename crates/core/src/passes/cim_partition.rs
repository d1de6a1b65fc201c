//! `cim-partition`: compulsory partitioning (paper §III-D1, Fig. 5d).
//!
//! Kernels whose operands exceed one subarray are tiled into
//! subarray-sized slices. The rewrite turns a fused `cim.similarity`
//! into a sequential `scf.for` over logical tiles: each iteration slices
//! the stored and query tensors, computes the tile's partial score
//! matrix on an acquired device (`cim.similarity_scores`), and
//! accumulates it with `cim.merge_partial`. A final `cim.reduce`
//! performs the top-k selection the original operation promised.
//!
//! The loop is expressed with `scf.for` iter-args, so the partitioned
//! form stays purely functional — it is directly executable by the host
//! reference interpreter, which is how the partitioning equivalence
//! tests validate this pass against the unpartitioned semantics.

use c4cam_ir::builder::OpBuilder;
use c4cam_ir::pass::{Pass, PassError};
use c4cam_ir::{Attribute, Module, OpId, ValueId};

use crate::dialects::tensor_ops::{build_extract_slice_2d, OffsetSpec};
use crate::dialects::{cim, scf};
use crate::mapping::{place, MappingProblem};
use crate::passes::defining_op;
use c4cam_arch::ArchSpec;

/// The `cim-partition` pass.
#[derive(Debug)]
pub struct CimPartitionPass {
    /// Target architecture (supplies subarray geometry).
    pub spec: ArchSpec,
}

impl Pass for CimPartitionPass {
    fn name(&self) -> &'static str {
        "cim-partition"
    }

    fn run(&self, m: &mut Module) -> Result<(), PassError> {
        let kernels = find_similarity_kernels(m);
        for k in kernels {
            partition_kernel(m, &self.spec, &k).map_err(|e| PassError::new(self.name(), e))?;
        }
        Ok(())
    }
}

/// A fused similarity kernel: the acquire/execute/release triple plus
/// its extracted parameters. Produced by [`find_similarity_kernels`] and
/// consumed by the partitioning and mapping passes.
#[derive(Debug, Clone)]
pub struct SimilarityKernel {
    /// The `cim.acquire` op of the triple.
    pub acquire: OpId,
    /// The `cim.execute` op of the triple.
    pub execute: OpId,
    /// The `cim.release` op of the triple.
    pub release: OpId,
    /// The inner `cim.similarity` op.
    pub similarity: OpId,
    /// Stored patterns tensor (`[N, d]`).
    pub stored: ValueId,
    /// Query tensor (`[nq, d]`).
    pub query: ValueId,
    /// The `k` operand value.
    pub k_value: ValueId,
    /// Static value of `k`.
    pub k_static: i64,
    /// Similarity metric (`dot` / `eucl` / `cos`).
    pub metric: String,
    /// `largest` flag of the original top-k.
    pub largest: bool,
    /// For each execute result, which similarity result it yields
    /// (0 = values, 1 = indices).
    pub yield_select: Vec<usize>,
    /// `N`: stored row count.
    pub stored_rows: usize,
    /// `d`: feature dimensionality.
    pub feature_dims: usize,
    /// `nq`: query count.
    pub queries: usize,
}

impl SimilarityKernel {
    /// The placement problem this kernel poses.
    pub fn problem(&self) -> MappingProblem {
        MappingProblem {
            stored_rows: self.stored_rows,
            feature_dims: self.feature_dims,
            queries: self.queries,
        }
    }
}

/// Locate all fused `cim.similarity` kernels in the module.
pub fn find_similarity_kernels(m: &Module) -> Vec<SimilarityKernel> {
    let mut out = Vec::new();
    for op in m.walk_all() {
        if m.op(op).name != "cim.execute" {
            continue;
        }
        let body = match m.op(op).regions[0].first() {
            Some(&b) => b,
            None => continue,
        };
        let ops = m.block(body).ops.clone();
        if ops.len() != 2 {
            continue;
        }
        let (sim, yld) = (ops[0], ops[1]);
        if m.op(sim).name != "cim.similarity" || m.op(yld).name != "cim.yield" {
            continue;
        }
        let handle = m.op(op).operands[0];
        let acquire = match defining_op(m, handle) {
            Some(a) if m.op(a).name == "cim.acquire" => a,
            _ => continue,
        };
        let parent = match m.op(op).parent {
            Some(p) => p,
            None => continue,
        };
        let release = match m
            .block(parent)
            .ops
            .iter()
            .copied()
            .find(|&r| m.op(r).name == "cim.release" && m.op(r).operands[0] == handle)
        {
            Some(r) => r,
            None => continue,
        };
        let sim_results = m.op(sim).results.clone();
        let yield_select: Option<Vec<usize>> = m
            .op(yld)
            .operands
            .iter()
            .map(|v| sim_results.iter().position(|r| r == v))
            .collect();
        let yield_select = match yield_select {
            Some(s) => s,
            None => continue,
        };
        let stored = m.op(sim).operands[0];
        let query = m.op(sim).operands[1];
        let k_value = m.op(sim).operands[2];
        let k_static = match m.op(sim).int_attr("k") {
            Some(k) => k,
            None => continue,
        };
        let metric = match m.op(sim).str_attr("metric") {
            Some(x) => x.to_string(),
            None => continue,
        };
        let largest = m
            .op(sim)
            .attr("largest")
            .and_then(Attribute::as_bool)
            .unwrap_or(false);
        let s_shape = match m.kind(m.value_type(stored)).shape() {
            Some(s) => s.to_vec(),
            None => continue,
        };
        let q_shape = match m.kind(m.value_type(query)).shape() {
            Some(s) => s.to_vec(),
            None => continue,
        };
        out.push(SimilarityKernel {
            acquire,
            execute: op,
            release,
            similarity: sim,
            stored,
            query,
            k_value,
            k_static,
            metric,
            largest,
            yield_select,
            stored_rows: s_shape[0] as usize,
            feature_dims: s_shape[1] as usize,
            queries: q_shape[0] as usize,
        });
    }
    out
}

fn partition_kernel(m: &mut Module, spec: &ArchSpec, k: &SimilarityKernel) -> Result<(), String> {
    let p = place(spec, &k.problem()).map_err(|e| e.message)?;
    if p.logical_tiles <= 1 {
        // Fits one subarray: no partitioning required (paper only tiles
        // when operand sizes exceed the array).
        return Ok(());
    }
    let nq = k.queries as i64;
    let rows_used = p.rows_used as i64;
    let padded = p.padded_rows as i64;
    let cols = spec.cols_per_subarray as i64;
    let f32t = m.f32_ty();
    let acc_ty = m.tensor_ty(&[nq, padded], f32t);

    let mut b = OpBuilder::before(m, k.acquire);
    // Accumulator initialized to zero scores.
    let init_op = b.op(
        "cim.init_acc",
        &[],
        &[acc_ty],
        vec![(
            "shape",
            Attribute::Array(vec![Attribute::Int(nq), Attribute::Int(padded)]),
        )],
    );
    let acc0 = b.module().result(init_op, 0);
    let c0 = b.const_index(0);
    let c1 = b.const_index(1);
    let c_tiles = b.const_index(p.logical_tiles as i64);
    let c_chunks = b.const_index(p.col_chunks as i64);
    let c_rows_used = b.const_index(rows_used);
    let c_cols = b.const_index(cols);

    let (for_op, body, lin, carried) = scf::build_for_iter(&mut b, c0, c_tiles, c1, &[acc0]);
    let acc_in = carried[0];

    // Loop body.
    let mut bb = OpBuilder::at_end(m, body);
    let idx_ty = bb.module().index_ty();
    let rg_op = bb.op("arith.divui", &[lin, c_chunks], &[idx_ty], vec![]);
    let rg = bb.module().result(rg_op, 0);
    let cc_op = bb.op("arith.remui", &[lin, c_chunks], &[idx_ty], vec![]);
    let cc = bb.module().result(cc_op, 0);
    let row_off_op = bb.op("arith.muli", &[rg, c_rows_used], &[idx_ty], vec![]);
    let row_off = bb.module().result(row_off_op, 0);
    let col_off_op = bb.op("arith.muli", &[cc, c_cols], &[idx_ty], vec![]);
    let col_off = bb.module().result(col_off_op, 0);

    let s_slice = build_extract_slice_2d(
        &mut bb,
        k.stored,
        [OffsetSpec::Dynamic(row_off), OffsetSpec::Dynamic(col_off)],
        [rows_used, cols],
    );
    let q_slice = build_extract_slice_2d(
        &mut bb,
        k.query,
        [OffsetSpec::Static(0), OffsetSpec::Dynamic(col_off)],
        [nq, cols],
    );

    let handle = cim::build_acquire(&mut bb);
    let scores_ty = bb.module().tensor_ty(&[nq, rows_used], f32t);
    let (exec, exec_body) = cim::build_execute(&mut bb, handle, &[s_slice, q_slice], &[scores_ty]);
    cim::build_release(&mut bb, handle);
    let exec_scores = bb.module().result(exec, 0);
    let merge_op = bb.op(
        "cim.merge_partial",
        &[acc_in, exec_scores, row_off],
        &[acc_ty],
        vec![("dir", "horizontal".into())],
    );
    let merged = bb.module().result(merge_op, 0);
    scf::end_body(m, body, &[merged]);

    // Fill the execute body.
    let scores = m.create_op(
        "cim.similarity_scores",
        &[s_slice, q_slice],
        &[scores_ty],
        vec![("metric", k.metric.as_str().into())],
        0,
    );
    m.push_op(exec_body, scores);
    let scores_res = m.result(scores, 0);
    cim::build_yield(m, exec_body, &[scores_res]);

    // Final reduce after the loop. Result types adopt the original
    // execute's yielded types (e.g. KNN's rank-1 `[k]`), defaulting to
    // the canonical `[nq, k]`.
    let acc_final = m.result(for_op, 0);
    let old_result_tys: Vec<c4cam_ir::Type> = m
        .op(k.execute)
        .results
        .iter()
        .map(|&r| m.value_type(r))
        .collect();
    let default_ty = m.tensor_ty(&[nq, k.k_static], f32t);
    let out_tys: Vec<c4cam_ir::Type> = (0..2usize)
        .map(|i| {
            k.yield_select
                .iter()
                .position(|&s| s == i)
                .map(|pos| old_result_tys[pos])
                .unwrap_or(default_ty)
        })
        .collect();
    let mut b = OpBuilder::before(m, k.acquire);
    let reduce = b.op(
        "cim.reduce",
        &[acc_final, k.k_value],
        &out_tys,
        vec![
            ("largest", Attribute::Bool(k.largest)),
            ("metric", k.metric.as_str().into()),
            ("k", Attribute::Int(k.k_static)),
            ("n_valid", Attribute::Int(k.stored_rows as i64)),
        ],
    );
    let reduce_results = [m.result(reduce, 0), m.result(reduce, 1)];

    // Rewire and clean up the original triple.
    let old_results = m.op(k.execute).results.clone();
    for (i, &old) in old_results.iter().enumerate() {
        m.replace_all_uses(old, reduce_results[k.yield_select[i]]);
    }
    m.erase_op(k.release);
    m.erase_op(k.execute);
    m.erase_op(k.acquire);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialects::{standard_registry, torch};
    use crate::passes::{CimFusePass, TorchToCimPass};
    use c4cam_ir::verify::verify_module;

    fn spec_32() -> ArchSpec {
        ArchSpec::builder().subarray(32, 32).build().unwrap()
    }

    fn lower_to_partitioned(m: &mut Module, spec: &ArchSpec) {
        TorchToCimPass.run(m).unwrap();
        CimFusePass.run(m).unwrap();
        CimPartitionPass { spec: spec.clone() }.run(m).unwrap();
        verify_module(m, &standard_registry()).unwrap();
    }

    #[test]
    fn hdc_partitions_into_tile_loop() {
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 10, 10, 8192, 1);
        lower_to_partitioned(&mut m, &spec_32());
        let names: Vec<String> = m.walk(func).iter().map(|&o| m.op(o).name.clone()).collect();
        assert!(names.contains(&"scf.for".to_string()), "{names:?}");
        assert!(names.contains(&"cim.similarity_scores".to_string()));
        assert!(names.contains(&"cim.merge_partial".to_string()));
        assert!(names.contains(&"cim.reduce".to_string()));
        assert!(names.contains(&"tensor.extract_slice".to_string()));
        assert!(!names.contains(&"cim.similarity".to_string()));
        // 8192 / 32 = 256 tiles.
        for op in m.walk(func) {
            if m.op(op).name == "scf.for" {
                assert_eq!(scf::const_bounds(&m, op), Some((0, 256, 1)));
            }
        }
    }

    #[test]
    fn small_kernels_stay_unpartitioned() {
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 4, 4, 16, 1);
        lower_to_partitioned(&mut m, &spec_32());
        let names: Vec<String> = m.walk(func).iter().map(|&o| m.op(o).name.clone()).collect();
        assert!(names.contains(&"cim.similarity".to_string()));
        assert!(!names.contains(&"scf.for".to_string()));
    }

    #[test]
    fn knn_partitions_rows_and_columns() {
        let mut m = Module::new();
        let func = torch::build_knn_eucl(&mut m, 100, 64, 3);
        lower_to_partitioned(&mut m, &spec_32());
        // 100 rows / 32 = 4 row groups (ceil), 64/32 = 2 col chunks → 8.
        let mut found = false;
        for op in m.walk(func) {
            if m.op(op).name == "scf.for" {
                assert_eq!(scf::const_bounds(&m, op), Some((0, 8, 1)));
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn reduce_carries_selection_attributes() {
        let mut m = Module::new();
        let func = torch::build_knn_eucl(&mut m, 100, 64, 3);
        lower_to_partitioned(&mut m, &spec_32());
        for op in m.walk(func) {
            if m.op(op).name == "cim.reduce" {
                assert_eq!(m.op(op).int_attr("k"), Some(3));
                assert_eq!(m.op(op).int_attr("n_valid"), Some(100));
                assert_eq!(m.op(op).str_attr("metric"), Some("eucl"));
            }
        }
    }
}
