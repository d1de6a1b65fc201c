//! `cim-to-cam` + `cam-map`: lower fused similarity kernels to the `cam`
//! dialect and map them onto the accelerator hierarchy (paper §III-D2,
//! Fig. 6).
//!
//! The paper describes two passes — the `cim-to-cam` conversion
//! (acquire/execute/release → cam allocation + write/search/read, with
//! bufferization) and the `cam-map` hierarchy mapping. Both share the
//! placement computation, so this implementation performs them as one
//! transformation. A kernel that fits a single subarray (the paper's
//! "simple system") goes through the same nest with one-trip loops.
//!
//! ## Generated structure
//!
//! Two loop nests over the hierarchy (banks → mats → arrays →
//! subarrays), in the iteration-space of hierarchy coordinates:
//!
//! * a **setup nest** that allocates the hierarchy, records subarray
//!   handles in an address table, and programs the stored tiles
//!   (`cam.write_value`), and
//! * a **query nest** (inside a sequential loop over queries) that
//!   searches each subarray (`cam.search` + `cam.read`) and accumulates
//!   partial scores into a global buffer
//!   (`cam.merge_partial_subarray`), followed by per-level periphery
//!   merges (`cam.merge_level`) and a sequential host accumulation
//!   across banks.
//!
//! The optimization configurations (§IV-C1) shape the nest:
//!
//! * **base** — every level iterates with `scf.parallel`;
//! * **power** — the subarray loop becomes `scf.for` (at most one
//!   subarray active per array at a time);
//! * **density** — selective search packs `floor(R / rows_used)` tiles
//!   per subarray; an inner sequential batch loop searches each tile's
//!   row window (selective precharge);
//! * **power+density** — both.

use c4cam_ir::builder::OpBuilder;
use c4cam_ir::pass::{Pass, PassError};
use c4cam_ir::{Attribute, BlockId, Module, ValueId};

use crate::dialects::tensor_ops::{build_extract_slice_2d, OffsetSpec};
use crate::dialects::{cam, memref, scf};
use crate::mapping::{place, MappingProblem};
use crate::passes::cim_partition::{find_similarity_kernels, SimilarityKernel};
use c4cam_arch::{ArchSpec, MatchKind, Metric, SpecError};

/// The combined `cim-to-cam` / `cam-map` pass.
#[derive(Debug)]
pub struct CamMapPass {
    /// Target architecture (geometry, hierarchy, optimization target).
    pub spec: ArchSpec,
}

impl Pass for CamMapPass {
    fn name(&self) -> &'static str {
        "cam-map"
    }

    fn run(&self, m: &mut Module) -> Result<(), PassError> {
        let kernels = find_similarity_kernels(m);
        if kernels.is_empty() {
            return Err(PassError::new(
                self.name(),
                "no fused cim.similarity kernel found (run cim-fuse-ops first)",
            ));
        }
        for k in kernels {
            let key = map_key(&self.spec, &k.problem())
                .map_err(|e| PassError::new(self.name(), e.message))?;
            map_kernel(m, &key, &k).map_err(|e| PassError::new(self.name(), e))?;
        }
        Ok(())
    }
}

/// Device metric for a similarity metric.
///
/// `dot` (and `cos`) execute as symbol-match counting on the device —
/// the Hamming complement — exactly like the FeFET CAM hardware the
/// paper validates against \[22\]. Match-count ranking coincides with
/// true dot-product ranking when the stored rows are norm-balanced
/// (random hypervectors are); see docs/ARCHITECTURE.md. Euclidean is
/// exact.
fn device_metric(metric: &str) -> Metric {
    match metric {
        "eucl" => Metric::Euclidean,
        _ => Metric::Dot,
    }
}

struct Ctx {
    idx_cache: std::collections::HashMap<i64, ValueId>,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx {
            idx_cache: std::collections::HashMap::new(),
        }
    }

    /// Constant index, cached per enclosing entry block region.
    fn cidx(&mut self, b: &mut OpBuilder<'_>, v: i64) -> ValueId {
        if let Some(&c) = self.idx_cache.get(&v) {
            return c;
        }
        let c = b.const_index(v);
        self.idx_cache.insert(v, c);
        c
    }
}

fn binop(b: &mut OpBuilder<'_>, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let idx = b.module().index_ty();
    let op = b.op(name, &[lhs, rhs], &[idx], vec![]);
    b.module().result(op, 0)
}

/// `scf.if (lhs < rhs)`: returns the then-block; caller fills it and it
/// is auto-terminated by [`finish_if`].
fn begin_if_ult(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> BlockId {
    let i1 = b.module().i1_ty();
    let cmp = b.op(
        "arith.cmpi",
        &[lhs, rhs],
        &[i1],
        vec![("predicate", "ult".into())],
    );
    let cond = b.module().result(cmp, 0);
    let if_op = b.op_with_regions("scf.if", &[cond], &[], vec![], 1);
    b.module().add_block(if_op, 0, &[])
}

fn finish_block(m: &mut Module, block: BlockId) {
    scf::end_body(m, block, &[]);
}

/// Everything `cam-map` reads of the architecture to map one kernel:
/// the placement's tile arithmetic and the hierarchy's fan-outs and
/// loop kinds. The pass maps from this key and the kernel alone, so two
/// specs with equal keys map a module to byte-identical IR — whatever
/// else (cell width, CAM kind, technology) they differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapKey {
    banks: i64,
    mats: i64,
    arrays: i64,
    subs: i64,
    batches: i64,
    logical: i64,
    physical: i64,
    col_chunks: i64,
    rows_used: i64,
    cols: i64,
    rows: i64,
    /// Accumulator width: the placement's padded stored rows.
    padded_rows: i64,
    /// Loop kind per hierarchy level (bank, mat, array, subarray):
    /// `true` = concurrent (`scf.parallel`). Derived from the spec's
    /// per-level access modes (§III-B) and the optimization target
    /// (cam-power serializes the subarray level).
    parallel_levels: [bool; 4],
    /// Selective search in use (cam-density).
    selective: bool,
}

/// The [`MapKey`] of placing `problem` on `spec`.
///
/// # Errors
/// The placement's failure ([`place`]).
pub fn map_key(spec: &ArchSpec, problem: &MappingProblem) -> Result<MapKey, SpecError> {
    use c4cam_arch::AccessMode;
    let p = place(spec, problem)?;
    let par = |mode: AccessMode| mode == AccessMode::Parallel;
    let mut parallel_levels = [
        par(spec.access.bank),
        par(spec.access.mat),
        par(spec.access.array),
        par(spec.access.subarray),
    ];
    if spec.optimization.limits_power() {
        // cam-power: at most one subarray active per array at a time.
        parallel_levels[3] = false;
    }
    Ok(MapKey {
        banks: p.banks as i64,
        mats: spec.mats_per_bank as i64,
        arrays: spec.arrays_per_mat as i64,
        subs: spec.subarrays_per_array as i64,
        batches: p.batches_per_subarray as i64,
        logical: p.logical_tiles as i64,
        physical: p.physical_subarrays as i64,
        col_chunks: p.col_chunks as i64,
        rows_used: p.rows_used as i64,
        cols: spec.cols_per_subarray as i64,
        rows: spec.rows_per_subarray as i64,
        padded_rows: p.padded_rows as i64,
        parallel_levels,
        selective: p.batches_per_subarray > 1,
    })
}

/// Build a loop of the configured kind for hierarchy `level`
/// (0 = bank … 3 = subarray).
fn build_level_loop(
    b: &mut OpBuilder<'_>,
    np: &MapKey,
    level: usize,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
) -> (c4cam_ir::OpId, BlockId, ValueId) {
    if np.parallel_levels[level] {
        scf::build_parallel(b, lb, ub, step)
    } else {
        scf::build_for(b, lb, ub, step)
    }
}

/// Open the 4-level hierarchy nest inside `block`. Returns the innermost
/// (subarray-loop) body and the ivs `(bank, mat, array, sub)` plus the
/// bodies of each level for post-loop merge insertion.
struct Nest {
    innermost: BlockId,
    ivs: [ValueId; 4],
    /// (bank_body, mat_body, array_body) for appending merge ops; the
    /// loops inside them are already placed.
    level_bodies: [BlockId; 3],
}

fn open_nest(m: &mut Module, block: BlockId, ctx: &mut Ctx, np: &MapKey) -> Nest {
    let mut b = OpBuilder::at_end(m, block);
    let c0 = ctx.cidx(&mut b, 0);
    let c1 = ctx.cidx(&mut b, 1);
    let cb = ctx.cidx(&mut b, np.banks);
    let (_, bank_body, bank_iv) = build_level_loop(&mut b, np, 0, c0, cb, c1);

    let mut b = OpBuilder::at_end(m, bank_body);
    let cm = b.const_index(np.mats);
    let c0b = b.const_index(0);
    let c1b = b.const_index(1);
    let (_, mat_body, mat_iv) = build_level_loop(&mut b, np, 1, c0b, cm, c1b);

    let mut b = OpBuilder::at_end(m, mat_body);
    let ca = b.const_index(np.arrays);
    let c0m = b.const_index(0);
    let c1m = b.const_index(1);
    let (_, array_body, array_iv) = build_level_loop(&mut b, np, 2, c0m, ca, c1m);

    let mut b = OpBuilder::at_end(m, array_body);
    let cs = b.const_index(np.subs);
    let c0a = b.const_index(0);
    let c1a = b.const_index(1);
    let (_, sub_body, sub_iv) = build_level_loop(&mut b, np, 3, c0a, cs, c1a);

    Nest {
        innermost: sub_body,
        ivs: [bank_iv, mat_iv, array_iv, sub_iv],
        level_bodies: [bank_body, mat_body, array_body],
    }
}

/// Linearized physical subarray index
/// `((bank*mats + mat)*arrays + array)*subs + sub`.
fn linear_subarray(b: &mut OpBuilder<'_>, np: &MapKey, ivs: &[ValueId; 4]) -> ValueId {
    let cm = b.const_index(np.mats);
    let ca = b.const_index(np.arrays);
    let cs = b.const_index(np.subs);
    let t0 = binop(b, "arith.muli", ivs[0], cm);
    let t1 = binop(b, "arith.addi", t0, ivs[1]);
    let t2 = binop(b, "arith.muli", t1, ca);
    let t3 = binop(b, "arith.addi", t2, ivs[2]);
    let t4 = binop(b, "arith.muli", t3, cs);
    binop(b, "arith.addi", t4, ivs[3])
}

/// Tile coordinates of logical tile `l`: returns
/// `(row_off, col_off, write_row)` index values.
fn tile_coords(
    b: &mut OpBuilder<'_>,
    np: &MapKey,
    l: ValueId,
    batch: ValueId,
) -> (ValueId, ValueId, ValueId) {
    let c_chunks = b.const_index(np.col_chunks);
    let c_rows_used = b.const_index(np.rows_used);
    let c_cols = b.const_index(np.cols);
    let rg = binop(b, "arith.divui", l, c_chunks);
    let cc = binop(b, "arith.remui", l, c_chunks);
    let row_off = binop(b, "arith.muli", rg, c_rows_used);
    let col_off = binop(b, "arith.muli", cc, c_cols);
    let write_row = binop(b, "arith.muli", batch, c_rows_used);
    (row_off, col_off, write_row)
}

fn map_kernel(m: &mut Module, np: &MapKey, k: &SimilarityKernel) -> Result<(), String> {
    let metric = device_metric(&k.metric);
    let nq = k.queries as i64;
    let mut ctx = Ctx::new();

    // ------------------------------------------------------------------
    // Prologue: buffers and constants (before the old acquire).
    // ------------------------------------------------------------------
    let mut b = OpBuilder::before(m, k.acquire);
    let handles = memref::build_alloc_f32(&mut b, &[np.physical]);
    let acc = memref::build_alloc_f32(&mut b, &[nq, np.padded_rows]);

    // ------------------------------------------------------------------
    // Setup nest: allocate + program.
    // ------------------------------------------------------------------
    // The nest lives where the acquire used to be; open it in the parent
    // block at that position.
    let parent = m.op(k.acquire).parent.ok_or("kernel not placed")?;
    let pos = m.position_in_block(k.acquire).unwrap();
    let setup_anchor = {
        // Anchor block: we create the nest by building loops appended at
        // a temporary position. OpBuilder inserts sequentially, so
        // everything lands right before the old acquire.
        let _ = pos;
        parent
    };
    let _ = setup_anchor;

    let mut b = OpBuilder::before(m, k.acquire);
    let c_rows = ctx.cidx(&mut b, np.rows);
    let c_cols_geom = ctx.cidx(&mut b, np.cols);

    // Build the setup nest manually so allocation ops land at each level.
    let c0 = ctx.cidx(&mut b, 0);
    let c1 = ctx.cidx(&mut b, 1);
    let cb = ctx.cidx(&mut b, np.banks);
    let (_, bank_body, bank_iv) = build_level_loop(&mut b, np, 0, c0, cb, c1);
    let mut bb = OpBuilder::at_end(m, bank_body);
    let bank = cam::build_alloc_bank(&mut bb, c_rows, c_cols_geom);
    let cm = bb.const_index(np.mats);
    let c0x = bb.const_index(0);
    let c1x = bb.const_index(1);
    let (_, mat_body, mat_iv) = build_level_loop(&mut bb, np, 1, c0x, cm, c1x);
    let mut bb = OpBuilder::at_end(m, mat_body);
    let mat = cam::build_alloc_child(&mut bb, bank);
    let ca = bb.const_index(np.arrays);
    let c0y = bb.const_index(0);
    let c1y = bb.const_index(1);
    let (_, array_body, array_iv) = build_level_loop(&mut bb, np, 2, c0y, ca, c1y);
    let mut bb = OpBuilder::at_end(m, array_body);
    let array = cam::build_alloc_child(&mut bb, mat);
    let cs = bb.const_index(np.subs);
    let c0z = bb.const_index(0);
    let c1z = bb.const_index(1);
    let (_, sub_body, sub_iv) = build_level_loop(&mut bb, np, 3, c0z, cs, c1z);

    // Innermost setup body.
    {
        let mut bi = OpBuilder::at_end(m, sub_body);
        let ivs = [bank_iv, mat_iv, array_iv, sub_iv];
        let lin = linear_subarray(&mut bi, np, &ivs);
        let c_phys = bi.const_index(np.physical);
        let guard = begin_if_ult(&mut bi, lin, c_phys);
        {
            let mut bg = OpBuilder::at_end(m, guard);
            let sub = cam::build_alloc_child(&mut bg, array);
            bg.op("cam.store_handle", &[handles, lin, sub], &[], vec![]);
            // Batch loop: write each co-resident tile.
            let c0g = bg.const_index(0);
            let c1g = bg.const_index(1);
            let cbt = bg.const_index(np.batches);
            let (_, batch_body, batch_iv) = scf::build_for(&mut bg, c0g, cbt, c1g);
            {
                let mut bt = OpBuilder::at_end(m, batch_body);
                let cbatches = bt.const_index(np.batches);
                let t = binop(&mut bt, "arith.muli", lin, cbatches);
                let l = binop(&mut bt, "arith.addi", t, batch_iv);
                let c_logical = bt.const_index(np.logical);
                let lguard = begin_if_ult(&mut bt, l, c_logical);
                {
                    let mut bl = OpBuilder::at_end(m, lguard);
                    let (row_off, col_off, write_row) = tile_coords(&mut bl, np, l, batch_iv);
                    let data = build_extract_slice_2d(
                        &mut bl,
                        k.stored,
                        [OffsetSpec::Dynamic(row_off), OffsetSpec::Dynamic(col_off)],
                        [np.rows_used, np.cols],
                    );
                    bl.op("cam.write_value", &[sub, data, write_row], &[], vec![]);
                }
                finish_block(m, lguard);
            }
            finish_block(m, batch_body);
        }
        finish_block(m, guard);
    }
    finish_block(m, sub_body);
    finish_block(m, array_body);
    finish_block(m, mat_body);
    finish_block(m, bank_body);

    // ------------------------------------------------------------------
    // Query nest.
    // ------------------------------------------------------------------
    let mut b = OpBuilder::before(m, k.acquire);
    b.op(
        "cam.phase_marker",
        &[],
        &[],
        vec![("name", "setup-complete".into())],
    );
    let c0q = b.const_index(0);
    let c1q = b.const_index(1);
    let cnq = b.const_index(nq);
    let (_, q_body, q_iv) = scf::build_for(&mut b, c0q, cnq, c1q);
    {
        let nest = open_nest(m, q_body, &mut Ctx::new(), np);
        {
            let mut bi = OpBuilder::at_end(m, nest.innermost);
            let lin = linear_subarray(&mut bi, np, &nest.ivs);
            let c_phys = bi.const_index(np.physical);
            let guard = begin_if_ult(&mut bi, lin, c_phys);
            {
                let mut bg = OpBuilder::at_end(m, guard);
                let sub_ty = bg.module().cam_ty(c4cam_ir::CamLevel::Subarray);
                let load = bg.op("cam.load_handle", &[handles, lin], &[sub_ty], vec![]);
                let sub = bg.module().result(load, 0);
                let c0g = bg.const_index(0);
                let c1g = bg.const_index(1);
                let cbt = bg.const_index(np.batches);
                let (_, batch_body, batch_iv) = scf::build_for(&mut bg, c0g, cbt, c1g);
                {
                    let mut bt = OpBuilder::at_end(m, batch_body);
                    let cbatches = bt.const_index(np.batches);
                    let t = binop(&mut bt, "arith.muli", lin, cbatches);
                    let l = binop(&mut bt, "arith.addi", t, batch_iv);
                    let c_logical = bt.const_index(np.logical);
                    let lguard = begin_if_ult(&mut bt, l, c_logical);
                    {
                        let mut bl = OpBuilder::at_end(m, lguard);
                        let (row_off, col_off, write_row) = tile_coords(&mut bl, np, l, batch_iv);
                        let qslice = build_extract_slice_2d(
                            &mut bl,
                            k.query,
                            [OffsetSpec::Dynamic(q_iv), OffsetSpec::Dynamic(col_off)],
                            [1, np.cols],
                        );
                        let selective = if np.selective {
                            let c_len = bl.const_index(np.rows_used);
                            Some((write_row, c_len))
                        } else {
                            None
                        };
                        let search_op = cam::build_search(
                            &mut bl,
                            sub,
                            qslice,
                            MatchKind::Best,
                            metric,
                            selective,
                        );
                        if np.selective {
                            bl.module().set_attr(
                                search_op,
                                "broadcast_share",
                                Attribute::Float(1.0 / np.batches as f64),
                            );
                        }
                        let (vals, idx) = cam::build_read(&mut bl, sub, np.rows);
                        // stored_row = read_index + (row_off - write_row)
                        let offset = binop(&mut bl, "arith.subi", row_off, write_row);
                        bl.op(
                            "cam.merge_partial_subarray",
                            &[sub, acc, vals, idx, q_iv, offset],
                            &[],
                            vec![("dir", "horizontal".into())],
                        );
                    }
                    finish_block(m, lguard);
                }
                finish_block(m, batch_body);
            }
            finish_block(m, guard);
        }
        finish_block(m, nest.innermost);
        // Per-level periphery merges.
        let [bank_body_q, mat_body_q, array_body_q] = nest.level_bodies;
        let elems = Attribute::Int(np.rows_used);
        let mut ba = OpBuilder::at_end(m, array_body_q);
        ba.op(
            "cam.merge_level",
            &[],
            &[],
            vec![("level", "array".into()), ("elems", elems.clone())],
        );
        finish_block(m, array_body_q);
        let mut bm = OpBuilder::at_end(m, mat_body_q);
        bm.op(
            "cam.merge_level",
            &[],
            &[],
            vec![("level", "mat".into()), ("elems", elems.clone())],
        );
        finish_block(m, mat_body_q);
        finish_block(m, bank_body_q);
        // Host accumulation across banks: sequential.
        let mut bh = OpBuilder::at_end(m, q_body);
        let c0h = bh.const_index(0);
        let c1h = bh.const_index(1);
        let cbh = bh.const_index(np.banks);
        let (_, host_body, _) = scf::build_for(&mut bh, c0h, cbh, c1h);
        let mut bhb = OpBuilder::at_end(m, host_body);
        bhb.op(
            "cam.merge_level",
            &[],
            &[],
            vec![("level", "bank".into()), ("elems", elems)],
        );
        finish_block(m, host_body);
    }
    finish_block(m, q_body);

    // ------------------------------------------------------------------
    // Final reduce + result wiring.
    // ------------------------------------------------------------------
    let select_largest = if k.metric == "eucl" {
        k.largest
    } else {
        // Device scores for dot/cos are negated overlap counts: flip.
        !k.largest
    };
    let f32t = m.f32_ty();
    // Result buffers adopt the original result shapes (e.g. KNN's
    // rank-1 `[k]`), defaulting to `[nq, k]`.
    let old_result_tys: Vec<c4cam_ir::Type> = m
        .op(k.execute)
        .results
        .iter()
        .map(|&r| m.value_type(r))
        .collect();
    let out_buf_tys: Vec<c4cam_ir::Type> = (0..2usize)
        .map(|i| {
            let shape = k
                .yield_select
                .iter()
                .position(|&s| s == i)
                .and_then(|pos| m.kind(old_result_tys[pos]).shape().map(|s| s.to_vec()))
                .unwrap_or_else(|| vec![nq, k.k_static]);
            m.memref_ty(&shape, f32t)
        })
        .collect();
    let mut b = OpBuilder::before(m, k.acquire);
    let reduce = b.op(
        "cam.reduce",
        &[acc],
        &out_buf_tys,
        vec![
            ("k", Attribute::Int(k.k_static)),
            ("n_valid", Attribute::Int(k.stored_rows as i64)),
            ("select_largest", Attribute::Bool(select_largest)),
            ("metric", k.metric.as_str().into()),
        ],
    );
    let vals_buf = m.result(reduce, 0);
    let idx_buf = m.result(reduce, 1);
    let mut b = OpBuilder::before(m, k.acquire);
    let vals_t = memref::build_to_tensor(&mut b, vals_buf);
    let idx_t = memref::build_to_tensor(&mut b, idx_buf);
    let new_results = [vals_t, idx_t];

    let old_results = m.op(k.execute).results.clone();
    for (i, &old) in old_results.iter().enumerate() {
        m.replace_all_uses(old, new_results[k.yield_select[i]]);
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
    use c4cam_arch::Optimization;
    use c4cam_ir::verify::verify_module;

    fn spec(opt: Optimization) -> ArchSpec {
        ArchSpec::builder()
            .subarray(32, 32)
            .hierarchy(4, 4, 8)
            .optimization(opt)
            .build()
            .unwrap()
    }

    fn lower(m: &mut Module, s: &ArchSpec) {
        TorchToCimPass.run(m).unwrap();
        CimFusePass.run(m).unwrap();
        CamMapPass { spec: s.clone() }.run(m).unwrap();
        verify_module(m, &standard_registry()).unwrap();
    }

    fn names(m: &Module, func: c4cam_ir::OpId) -> Vec<String> {
        m.walk(func).iter().map(|&o| m.op(o).name.clone()).collect()
    }

    #[test]
    fn base_config_generates_parallel_nest() {
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        lower(&mut m, &spec(Optimization::Base));
        let ns = names(&m, func);
        for op in [
            "cam.alloc_bank",
            "cam.alloc_mat",
            "cam.alloc_array",
            "cam.alloc_subarray",
            "cam.store_handle",
            "cam.load_handle",
            "cam.write_value",
            "cam.search",
            "cam.read",
            "cam.merge_partial_subarray",
            "cam.merge_level",
            "cam.reduce",
        ] {
            assert!(ns.contains(&op.to_string()), "missing {op} in {ns:?}");
        }
        assert!(!ns.contains(&"cim.similarity".to_string()));
        assert!(!ns.contains(&"cim.execute".to_string()));
        // base: subarray loops parallel → 8 scf.parallel in setup+query
        // (2 nests × 4 levels).
        let parallel = ns.iter().filter(|n| *n == "scf.parallel").count();
        assert_eq!(parallel, 8, "{ns:?}");
    }

    #[test]
    fn power_config_serializes_subarray_loops() {
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        lower(&mut m, &spec(Optimization::Power));
        let ns = names(&m, func);
        let parallel = ns.iter().filter(|n| *n == "scf.parallel").count();
        // Subarray level became scf.for in both nests: 6 parallel loops.
        assert_eq!(parallel, 6, "{ns:?}");
    }

    #[test]
    fn density_config_emits_selective_search() {
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        lower(&mut m, &spec(Optimization::Density));
        let mut saw_selective = false;
        for op in m.walk(func) {
            if m.op(op).name == "cam.search" {
                assert_eq!(
                    m.op(op).attr("selective").and_then(Attribute::as_bool),
                    Some(true)
                );
                assert_eq!(m.op(op).operands.len(), 4);
                saw_selective = true;
            }
        }
        assert!(saw_selective);
    }

    #[test]
    fn base_config_search_is_not_selective() {
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        lower(&mut m, &spec(Optimization::Base));
        for op in m.walk(func) {
            if m.op(op).name == "cam.search" {
                assert_eq!(
                    m.op(op).attr("selective").and_then(Attribute::as_bool),
                    Some(false)
                );
                assert_eq!(m.op(op).operands.len(), 2);
            }
        }
    }

    #[test]
    fn reduce_flips_selection_for_dot_metric() {
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        lower(&mut m, &spec(Optimization::Base));
        for op in m.walk(func) {
            if m.op(op).name == "cam.reduce" {
                // Original topk: largest=false on dot products; device
                // scores are negated → select_largest = true.
                assert_eq!(
                    m.op(op).attr("select_largest").and_then(Attribute::as_bool),
                    Some(true)
                );
            }
        }
        let _ = func;
    }

    #[test]
    fn access_modes_shape_the_loop_nest() {
        use c4cam_arch::{AccessMode, LevelAccess};
        let mut m = Module::new();
        let func = torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        let s = ArchSpec::builder()
            .subarray(32, 32)
            .hierarchy(4, 4, 8)
            .access(LevelAccess {
                bank: AccessMode::Parallel,
                mat: AccessMode::Sequential,
                array: AccessMode::Parallel,
                subarray: AccessMode::Parallel,
            })
            .build()
            .unwrap();
        lower(&mut m, &s);
        let ns = names(&m, func);
        // The mat level serializes in both nests: 6 parallel loops left.
        assert_eq!(
            ns.iter().filter(|n| *n == "scf.parallel").count(),
            6,
            "{ns:?}"
        );
        assert!(ns.iter().filter(|n| *n == "scf.for").count() >= 2);
    }

    #[test]
    fn cam_map_fails_without_fused_kernel() {
        let mut m = Module::new();
        let _ = torch::build_hdc_dot(&mut m, 2, 10, 1024, 1);
        // No torch-to-cim / fuse: nothing to map.
        let e = CamMapPass {
            spec: spec(Optimization::Base),
        }
        .run(&mut m)
        .unwrap_err();
        assert!(e.message.contains("cim-fuse-ops"), "{e}");
    }

    /// A [`MapKey`] is all `cam-map` reads of a spec: over a grid of
    /// geometries, optimisations, cell widths and hierarchies, any two
    /// specs with equal keys lower the same fused module to the same
    /// text, byte for byte.
    #[test]
    fn equal_map_keys_map_identically() {
        use crate::pipeline::C4camPipeline;
        use c4cam_arch::CamKind;
        use c4cam_ir::print::print_module;
        use std::collections::HashMap;

        let mut m = Module::new();
        torch::build_hdc_dot(&mut m, 4, 10, 8192, 1);
        let fused = C4camPipeline::new(spec(Optimization::Base))
            .lower_prefix(m)
            .unwrap();
        let kernels = find_similarity_kernels(&fused.module);
        assert_eq!(kernels.len(), 1);
        let problem = kernels[0].problem();
        let mut mapped: HashMap<MapKey, (String, String)> = HashMap::new();
        let mut specs = 0;
        for n in [16, 32, 64, 128, 256] {
            for opt in [
                Optimization::Base,
                Optimization::Power,
                Optimization::Density,
                Optimization::PowerDensity,
            ] {
                for bits in [1, 2] {
                    for (mats, arrays, subs) in [(4, 4, 8), (2, 2, 4)] {
                        let s = ArchSpec::builder()
                            .subarray(n, n)
                            .hierarchy(mats, arrays, subs)
                            .cam_kind(if bits > 1 {
                                CamKind::Mcam
                            } else {
                                CamKind::Tcam
                            })
                            .bits_per_cell(bits)
                            .optimization(opt)
                            .build()
                            .unwrap();
                        let text = print_module(
                            &C4camPipeline::new(s.clone())
                                .lower_suffix(fused.clone())
                                .unwrap()
                                .module,
                        );
                        let at = format!("{n}x{n}/{opt}/{bits}b/{mats}x{arrays}x{subs}");
                        specs += 1;
                        let key = map_key(&s, &problem).unwrap();
                        match mapped.get(&key) {
                            Some((first, want)) => assert!(text == *want, "{at} != {first}"),
                            None => {
                                mapped.insert(key, (at, text));
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(specs, 80);
        // Cell widths always share, so at most half the specs map anew.
        assert!(mapped.len() <= specs / 2, "{} keys", mapped.len());
    }
}
