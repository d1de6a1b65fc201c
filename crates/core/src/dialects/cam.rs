//! `cam` dialect: the novel device-specific abstraction for CAM
//! accelerators (paper §III-D2).
//!
//! Allocation walks the hierarchy (`cam.alloc_bank` → `cam.alloc_mat` →
//! `cam.alloc_array` → `cam.alloc_subarray`); `cim.execute` lowers to
//! `cam.write_value` + `cam.search` + `cam.read`; partial results are
//! combined with `cam.merge_partial_subarray` and the final selection is
//! `cam.reduce`. `cam.store_handle`/`cam.load_handle` model the
//! subarray address table the runtime keeps so that the query loop can
//! address subarrays programmed during setup.

use c4cam_ir::builder::OpBuilder;
use c4cam_ir::verify::{Arity, DialectRegistry, OpSpec};
use c4cam_ir::{Attribute, CamLevel, Module, OpId, TypeKind, ValueId};

/// Register the `cam` ops.
pub fn register(r: &mut DialectRegistry) {
    r.register(
        OpSpec::new("cam.alloc_bank", "allocate a CAM bank (rows, cols)")
            .operands(Arity::Exact(2))
            .results(Arity::Exact(1))
            .verifier(|m, op| expect_handle_result(m, op, CamLevel::Bank)),
    );
    r.register(
        OpSpec::new("cam.alloc_mat", "allocate a mat within a bank")
            .operands(Arity::Exact(1))
            .results(Arity::Exact(1))
            .verifier(|m, op| {
                expect_handle_operand(m, op, 0, CamLevel::Bank)?;
                expect_handle_result(m, op, CamLevel::Mat)
            }),
    );
    r.register(
        OpSpec::new("cam.alloc_array", "allocate an array within a mat")
            .operands(Arity::Exact(1))
            .results(Arity::Exact(1))
            .verifier(|m, op| {
                expect_handle_operand(m, op, 0, CamLevel::Mat)?;
                expect_handle_result(m, op, CamLevel::Array)
            }),
    );
    r.register(
        OpSpec::new("cam.alloc_subarray", "allocate a subarray within an array")
            .operands(Arity::Exact(1))
            .results(Arity::Exact(1))
            .verifier(|m, op| {
                expect_handle_operand(m, op, 0, CamLevel::Array)?;
                expect_handle_result(m, op, CamLevel::Subarray)
            }),
    );
    r.register(
        OpSpec::new(
            "cam.store_handle",
            "record a subarray handle in the address table",
        )
        .operands(Arity::Exact(3))
        .results(Arity::Exact(0))
        .verifier(|m, op| expect_handle_operand(m, op, 2, CamLevel::Subarray)),
    );
    r.register(
        OpSpec::new(
            "cam.load_handle",
            "look up a subarray handle from the address table",
        )
        .operands(Arity::Exact(2))
        .results(Arity::Exact(1))
        .verifier(|m, op| expect_handle_result(m, op, CamLevel::Subarray)),
    );
    r.register(
        OpSpec::new("cam.write_value", "program stored rows (data, row offset)")
            .operands(Arity::Exact(3))
            .results(Arity::Exact(0))
            .verifier(|m, op| expect_handle_operand(m, op, 0, CamLevel::Subarray)),
    );
    r.register(
        OpSpec::new("cam.search", "search a query against a subarray")
            .operands(Arity::AtLeast(2))
            .results(Arity::Exact(0))
            .verifier(verify_search),
    );
    r.register(
        OpSpec::new("cam.read", "read values/indices of the last search")
            .operands(Arity::Exact(1))
            .results(Arity::Exact(2))
            .verifier(|m, op| expect_handle_operand(m, op, 0, CamLevel::Subarray)),
    );
    r.register(
        OpSpec::new(
            "cam.merge_partial_subarray",
            "accumulate a subarray's partial result into the score buffer",
        )
        .operands(Arity::Exact(6))
        .results(Arity::Exact(0))
        .verifier(verify_merge_partial),
    );
    r.register(
        OpSpec::new(
            "cam.merge_level",
            "hierarchy-level accumulation cost (array/mat/bank periphery)",
        )
        .operands(Arity::Exact(0))
        .results(Arity::Exact(0))
        .verifier(verify_merge_level),
    );
    r.register(
        OpSpec::new(
            "cam.phase_marker",
            "statistics phase boundary (no hardware effect)",
        )
        .operands(Arity::Exact(0))
        .results(Arity::Exact(0))
        .verifier(|m, op| {
            m.op(op)
                .str_attr("name")
                .map(|_| ())
                .ok_or_else(|| "cam.phase_marker requires a 'name' attribute".to_string())
        }),
    );
    r.register(
        OpSpec::new("cam.reduce", "host-side final top-k over the score buffer")
            .operands(Arity::Exact(1))
            .results(Arity::Exact(2))
            .verifier(verify_reduce),
    );
}

fn expect_handle_result(m: &Module, op: OpId, level: CamLevel) -> Result<(), String> {
    match m.kind(m.value_type(m.op(op).results[0])) {
        TypeKind::CamHandle(l) if *l == level => Ok(()),
        _ => Err(format!("result must be !cam.{}", level.keyword())),
    }
}

fn expect_handle_operand(m: &Module, op: OpId, idx: usize, level: CamLevel) -> Result<(), String> {
    match m.kind(m.value_type(m.op(op).operands[idx])) {
        TypeKind::CamHandle(l) if *l == level => Ok(()),
        _ => Err(format!("operand {idx} must be !cam.{}", level.keyword())),
    }
}

fn verify_search(m: &Module, op: OpId) -> Result<(), String> {
    expect_handle_operand(m, op, 0, CamLevel::Subarray)?;
    let data = m.op(op);
    let kind = data
        .str_attr("kind")
        .ok_or("cam.search requires a 'kind' attribute (exact|best|threshold)")?;
    if c4cam_arch::MatchKind::from_keyword(kind).is_none() {
        return Err(format!("unknown search kind '{kind}'"));
    }
    let metric = data
        .str_attr("metric")
        .ok_or("cam.search requires a 'metric' attribute")?;
    if c4cam_arch::Metric::from_keyword(metric).is_none() {
        return Err(format!("unknown search metric '{metric}'"));
    }
    let selective = data
        .attr("selective")
        .and_then(Attribute::as_bool)
        .unwrap_or(false);
    let expected = if selective { 4 } else { 2 };
    if data.operands.len() != expected {
        return Err(format!(
            "cam.search with selective={selective} takes {expected} operands, has {}",
            data.operands.len()
        ));
    }
    Ok(())
}

fn verify_merge_partial(m: &Module, op: OpId) -> Result<(), String> {
    expect_handle_operand(m, op, 0, CamLevel::Subarray)?;
    // The merge kernel addresses the accumulator as `[query, column]`.
    match m.kind(m.value_type(m.op(op).operands[1])) {
        TypeKind::MemRef { shape, .. } if shape.len() == 2 => Ok(()),
        _ => Err("operand 1 (the accumulator) must be a rank-2 memref".to_string()),
    }
}

fn verify_merge_level(m: &Module, op: OpId) -> Result<(), String> {
    let level = m
        .op(op)
        .str_attr("level")
        .ok_or("cam.merge_level requires a 'level' attribute")?;
    match level {
        "bank" | "mat" | "array" | "subarray" => Ok(()),
        other => Err(format!("unknown merge level '{other}'")),
    }
}

fn verify_reduce(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.int_attr("k").is_none() {
        return Err("cam.reduce requires an integer 'k' attribute".into());
    }
    if data.int_attr("n_valid").is_none() {
        return Err("cam.reduce requires an integer 'n_valid' attribute".into());
    }
    if data
        .attr("select_largest")
        .and_then(Attribute::as_bool)
        .is_none()
    {
        return Err("cam.reduce requires a boolean 'select_largest' attribute".into());
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Builders
// ----------------------------------------------------------------------

/// Build `cam.alloc_bank` with constant row/col size operands.
pub fn build_alloc_bank(b: &mut OpBuilder<'_>, rows: ValueId, cols: ValueId) -> ValueId {
    let ty = b.module().cam_ty(CamLevel::Bank);
    let op = b.op("cam.alloc_bank", &[rows, cols], &[ty], vec![]);
    b.module().result(op, 0)
}

/// Build a child-level allocation (`cam.alloc_mat` / `alloc_array` /
/// `alloc_subarray`) from a parent handle.
pub fn build_alloc_child(b: &mut OpBuilder<'_>, parent: ValueId) -> ValueId {
    let parent_ty = b.module_ref().value_type(parent);
    let parent_level = match b.module_ref().kind(parent_ty) {
        TypeKind::CamHandle(l) => *l,
        _ => panic!("build_alloc_child expects a cam handle"),
    };
    let child = parent_level.child().expect("subarray has no children");
    let name = match child {
        CamLevel::Mat => "cam.alloc_mat",
        CamLevel::Array => "cam.alloc_array",
        CamLevel::Subarray => "cam.alloc_subarray",
        CamLevel::Bank => unreachable!(),
    };
    let ty = b.module().cam_ty(child);
    let op = b.op(name, &[parent], &[ty], vec![]);
    b.module().result(op, 0)
}

/// Build `cam.search`. `selective` optionally supplies `(start, len)`
/// index values for selective row precharging.
pub fn build_search(
    b: &mut OpBuilder<'_>,
    sub: ValueId,
    query: ValueId,
    kind: c4cam_arch::MatchKind,
    metric: c4cam_arch::Metric,
    selective: Option<(ValueId, ValueId)>,
) -> OpId {
    let mut operands = vec![sub, query];
    let is_selective = selective.is_some();
    if let Some((start, len)) = selective {
        operands.push(start);
        operands.push(len);
    }
    b.op(
        "cam.search",
        &operands,
        &[],
        vec![
            ("kind", kind.keyword().into()),
            ("metric", metric.keyword().into()),
            ("selective", Attribute::Bool(is_selective)),
        ],
    )
}

/// Build `cam.read` returning `(values, indices)` memrefs sized
/// `[rows, 1]`.
pub fn build_read(b: &mut OpBuilder<'_>, sub: ValueId, rows: i64) -> (ValueId, ValueId) {
    let f32t = b.module().f32_ty();
    let ty = b.module().memref_ty(&[rows, 1], f32t);
    let op = b.op("cam.read", &[sub], &[ty, ty], vec![]);
    (b.module().result(op, 0), b.module().result(op, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_arch::{MatchKind, Metric};
    use c4cam_ir::builder::build_func;
    use c4cam_ir::verify::verify_module;
    use c4cam_ir::Module;

    fn registry() -> DialectRegistry {
        let mut r = DialectRegistry::new();
        r.allow_unregistered = true;
        register(&mut r);
        crate::dialects::arith::register(&mut r);
        crate::dialects::memref::register(&mut r);
        r
    }

    #[test]
    fn allocation_chain_builds_and_verifies() {
        let mut m = Module::new();
        let (_, entry) = build_func(&mut m, "f", &[], &[]);
        let mut b = OpBuilder::at_end(&mut m, entry);
        let rows = b.const_index(32);
        let cols = b.const_index(32);
        let bank = build_alloc_bank(&mut b, rows, cols);
        let mat = build_alloc_child(&mut b, bank);
        let array = build_alloc_child(&mut b, mat);
        let sub = build_alloc_child(&mut b, array);
        assert!(matches!(
            m.kind(m.value_type(sub)),
            TypeKind::CamHandle(CamLevel::Subarray)
        ));
        verify_module(&m, &registry()).unwrap();
    }

    #[test]
    fn alloc_child_rejects_wrong_parent_level() {
        let mut m = Module::new();
        let bank_ty = m.cam_ty(CamLevel::Bank);
        let sub_ty = m.cam_ty(CamLevel::Subarray);
        let (_, entry) = build_func(&mut m, "f", &[bank_ty], &[]);
        let bank = m.block(entry).args[0];
        let mut b = OpBuilder::at_end(&mut m, entry);
        // alloc_array directly from a bank: wrong.
        b.op("cam.alloc_array", &[bank], &[sub_ty], vec![]);
        let e = verify_module(&m, &registry()).unwrap_err();
        assert!(e.message.contains("mat"), "{e}");
    }

    #[test]
    fn search_builder_emits_valid_op() {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let sub_ty = m.cam_ty(CamLevel::Subarray);
        let q_ty = m.tensor_ty(&[1, 32], f32t);
        let (_, entry) = build_func(&mut m, "f", &[sub_ty, q_ty], &[]);
        let sub = m.block(entry).args[0];
        let q = m.block(entry).args[1];
        let mut b = OpBuilder::at_end(&mut m, entry);
        build_search(&mut b, sub, q, MatchKind::Best, Metric::Hamming, None);
        let (vals, _idx) = build_read(&mut b, sub, 32);
        assert!(matches!(
            m.kind(m.value_type(vals)),
            TypeKind::MemRef { .. }
        ));
        verify_module(&m, &registry()).unwrap();
    }

    #[test]
    fn selective_search_requires_window_operands() {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let sub_ty = m.cam_ty(CamLevel::Subarray);
        let q_ty = m.tensor_ty(&[1, 32], f32t);
        let (_, entry) = build_func(&mut m, "f", &[sub_ty, q_ty], &[]);
        let sub = m.block(entry).args[0];
        let q = m.block(entry).args[1];
        let mut b = OpBuilder::at_end(&mut m, entry);
        b.op(
            "cam.search",
            &[sub, q],
            &[],
            vec![
                ("kind", "best".into()),
                ("metric", "hamming".into()),
                ("selective", Attribute::Bool(true)), // but no window operands
            ],
        );
        let e = verify_module(&m, &registry()).unwrap_err();
        assert!(e.message.contains("selective"), "{e}");
    }

    #[test]
    fn search_rejects_unknown_kind_or_metric() {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let sub_ty = m.cam_ty(CamLevel::Subarray);
        let q_ty = m.tensor_ty(&[1, 32], f32t);
        let (_, entry) = build_func(&mut m, "f", &[sub_ty, q_ty], &[]);
        let sub = m.block(entry).args[0];
        let q = m.block(entry).args[1];
        let mut b = OpBuilder::at_end(&mut m, entry);
        b.op(
            "cam.search",
            &[sub, q],
            &[],
            vec![
                ("kind", "fuzzy".into()),
                ("metric", "hamming".into()),
                ("selective", Attribute::Bool(false)),
            ],
        );
        let e = verify_module(&m, &registry()).unwrap_err();
        assert!(e.message.contains("kind"), "{e}");
    }

    #[test]
    fn reduce_requires_selection_attrs() {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let acc_ty = m.memref_ty(&[4, 16], f32t);
        let out_ty = m.memref_ty(&[4, 1], f32t);
        let (_, entry) = build_func(&mut m, "f", &[acc_ty], &[]);
        let acc = m.block(entry).args[0];
        let mut b = OpBuilder::at_end(&mut m, entry);
        b.op("cam.reduce", &[acc], &[out_ty, out_ty], vec![]);
        let e = verify_module(&m, &registry()).unwrap_err();
        assert!(e.message.contains("'k'"), "{e}");
    }

    #[test]
    fn merge_partial_requires_a_rank_2_memref_accumulator() {
        let build = |acc_shape: &[i64], acc_is_memref: bool| {
            let mut m = Module::new();
            let f32t = m.f32_ty();
            let idx_ty = m.index_ty();
            let sub_ty = m.cam_ty(CamLevel::Subarray);
            let acc_ty = if acc_is_memref {
                m.memref_ty(acc_shape, f32t)
            } else {
                m.tensor_ty(acc_shape, f32t)
            };
            let part_ty = m.memref_ty(&[4, 1], f32t);
            let (_, entry) = build_func(
                &mut m,
                "f",
                &[sub_ty, acc_ty, part_ty, part_ty, idx_ty, idx_ty],
                &[],
            );
            let args = m.block(entry).args.clone();
            let mut b = OpBuilder::at_end(&mut m, entry);
            b.op("cam.merge_partial_subarray", &args, &[], vec![]);
            verify_module(&m, &registry())
        };
        build(&[2, 4], true).unwrap();
        for (shape, memref) in [
            (&[4][..], true),
            (&[2, 2, 2][..], true),
            (&[2, 4][..], false),
        ] {
            let e = build(shape, memref).unwrap_err();
            assert!(e.message.contains("rank-2 memref"), "{e}");
        }
    }

    #[test]
    fn merge_level_validates_level_names() {
        let mut m = Module::new();
        let (_, entry) = build_func(&mut m, "f", &[], &[]);
        let mut b = OpBuilder::at_end(&mut m, entry);
        b.op("cam.merge_level", &[], &[], vec![("level", "rack".into())]);
        let e = verify_module(&m, &registry()).unwrap_err();
        assert!(e.message.contains("merge level"), "{e}");
    }
}
