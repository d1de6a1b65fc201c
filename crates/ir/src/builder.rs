//! Insertion-point-tracking operation builder.
//!
//! [`OpBuilder`] mirrors MLIR's `OpBuilder`: it remembers a block and a
//! position inside it, and every created op is inserted there, advancing
//! the position. Passes use it to splice new IR between existing ops.

use crate::attr::Attribute;
use crate::module::{BlockId, Module, OpId, ValueId};
use crate::types::Type;

/// Builder that creates and inserts operations at a tracked position.
#[derive(Debug)]
pub struct OpBuilder<'m> {
    m: &'m mut Module,
    block: BlockId,
    pos: usize,
}

impl<'m> OpBuilder<'m> {
    /// Builder inserting at the end of `block`.
    pub fn at_end(m: &'m mut Module, block: BlockId) -> OpBuilder<'m> {
        let pos = m.block(block).ops.len();
        OpBuilder { m, block, pos }
    }

    /// Builder inserting at `pos` within `block`.
    ///
    /// # Panics
    /// Panics if `pos` is past the end of the block.
    pub fn at(m: &'m mut Module, block: BlockId, pos: usize) -> OpBuilder<'m> {
        assert!(pos <= m.block(block).ops.len(), "insertion point OOB");
        OpBuilder { m, block, pos }
    }

    /// Builder inserting immediately before `op`.
    ///
    /// # Panics
    /// Panics if `op` is detached.
    pub fn before(m: &'m mut Module, op: OpId) -> OpBuilder<'m> {
        let block = m.op(op).parent.expect("op must be placed");
        let pos = m.position_in_block(op).unwrap();
        OpBuilder { m, block, pos }
    }

    /// Builder inserting immediately after `op`.
    ///
    /// # Panics
    /// Panics if `op` is detached.
    pub fn after(m: &'m mut Module, op: OpId) -> OpBuilder<'m> {
        let block = m.op(op).parent.expect("op must be placed");
        let pos = m.position_in_block(op).unwrap() + 1;
        OpBuilder { m, block, pos }
    }

    /// The underlying module.
    pub fn module(&mut self) -> &mut Module {
        self.m
    }

    /// Immutable view of the underlying module (usable in nested
    /// expressions where `module()` would double-borrow).
    pub fn module_ref(&self) -> &Module {
        self.m
    }

    /// Current insertion position.
    pub fn insertion_pos(&self) -> usize {
        self.pos
    }

    /// Insert an already-created, detached op at the current position.
    pub fn insert(&mut self, op: OpId) {
        self.m.insert_op(self.block, self.pos, op);
        self.pos += 1;
    }

    /// Create an op with no regions and insert it.
    pub fn op(
        &mut self,
        name: &str,
        operands: &[ValueId],
        result_types: &[Type],
        attrs: Vec<(&str, Attribute)>,
    ) -> OpId {
        let id = self.m.create_op(name, operands, result_types, attrs, 0);
        self.insert(id);
        id
    }

    /// Create an op with `num_regions` empty regions and insert it.
    pub fn op_with_regions(
        &mut self,
        name: &str,
        operands: &[ValueId],
        result_types: &[Type],
        attrs: Vec<(&str, Attribute)>,
        num_regions: usize,
    ) -> OpId {
        let id = self
            .m
            .create_op(name, operands, result_types, attrs, num_regions);
        self.insert(id);
        id
    }

    /// Shortcut: create `arith.constant` with an index-typed result.
    pub fn const_index(&mut self, value: i64) -> ValueId {
        let ty = self.m.index_ty();
        let op = self.op(
            "arith.constant",
            &[],
            &[ty],
            vec![("value", Attribute::Int(value))],
        );
        self.m.result(op, 0)
    }

    /// Shortcut: create `arith.constant` with an `i64` result.
    pub fn const_i64(&mut self, value: i64) -> ValueId {
        let ty = self.m.i64_ty();
        let op = self.op(
            "arith.constant",
            &[],
            &[ty],
            vec![("value", Attribute::Int(value))],
        );
        self.m.result(op, 0)
    }

    /// Shortcut: create `arith.constant` with an `f32` result.
    pub fn const_f32(&mut self, value: f32) -> ValueId {
        let ty = self.m.f32_ty();
        let op = self.op(
            "arith.constant",
            &[],
            &[ty],
            vec![("value", Attribute::Float(value as f64))],
        );
        self.m.result(op, 0)
    }
}

/// Create a `func.func` with an entry block, returning `(func, entry)`.
///
/// This helper lives here (rather than in the `func` dialect) because
/// almost every test and pass needs it.
pub fn build_func(
    m: &mut Module,
    name: &str,
    inputs: &[Type],
    results: &[Type],
) -> (OpId, BlockId) {
    let fty = m.func_ty(inputs, results);
    let func = m.create_op(
        "func.func",
        &[],
        &[],
        vec![
            ("sym_name", Attribute::Str(name.to_string())),
            ("function_type", Attribute::TypeAttr(fty)),
        ],
        1,
    );
    let body = m.body();
    m.push_op(body, func);
    let entry = m.add_block(func, 0, inputs);
    (func, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn builder_inserts_in_order_and_advances() {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let (_, entry) = build_func(&mut m, "f", &[f32t], &[f32t]);
        let arg = m.block(entry).args[0];
        let mut b = OpBuilder::at_end(&mut m, entry);
        let c0 = b.const_index(0);
        let add = b.op("arith.addf", &[arg, arg], &[f32t], vec![]);
        assert_eq!(b.insertion_pos(), 2);
        let _ = c0;
        let ops = m.block(entry).ops.clone();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1], add);
    }

    #[test]
    fn before_and_after_position_correctly() {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let (_, entry) = build_func(&mut m, "f", &[f32t], &[f32t]);
        let arg = m.block(entry).args[0];
        let mut b = OpBuilder::at_end(&mut m, entry);
        let first = b.op("arith.addf", &[arg, arg], &[f32t], vec![]);
        let mut b2 = OpBuilder::before(&mut m, first);
        let zero = b2.const_f32(0.0);
        let _ = zero;
        let mut b3 = OpBuilder::after(&mut m, first);
        let last = b3.op("arith.mulf", &[arg, arg], &[f32t], vec![]);
        let ops = m.block(entry).ops.clone();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[1], first);
        assert_eq!(ops[2], last);
        assert_eq!(m.op(ops[0]).name, "arith.constant");
    }

    #[test]
    fn build_func_wires_entry_block_args() {
        let mut m = Module::new();
        let f32t = m.f32_ty();
        let t = m.tensor_ty(&[10, 8192], f32t);
        let (func, entry) = build_func(&mut m, "forward", &[t, t], &[t]);
        assert_eq!(m.block(entry).args.len(), 2);
        assert_eq!(m.value_type(m.block(entry).args[0]), t);
        assert_eq!(m.op(func).str_attr("sym_name"), Some("forward"));
        assert_eq!(m.lookup_symbol("forward"), Some(func));
    }
}
